"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census-f2 --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in this process as a closed
loop with one caller, repeating its battery of operations until --seconds
have passed (and at least the workload's minimum number of passes). Every
answer is checked by an independent route after the timed section.

--trace 0 reports the end-to-end metrics. --trace 1 traces the set-up, runs
one untraced pass and one pass with every permdyn layer wrapped (see
tracer.py), and reports the per-layer metrics. Human-readable lines come
first; the last line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every answer is right, 1 when any
is wrong, 2 when the package cannot be found.
"""

import os

# Set before numpy is first imported: single-threaded numerics, and no
# transparent-huge-page advice for large arrays, since whether the shared
# host grants huge pages changes from process to process and moves the time
# of every 2^20-point evaluation by tens of percent.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from speed import Speedometer, speed_factor  # noqa: E402
from workloads import OUT_DIR, ROOT, run_child  # noqa: E402

SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def end_to_end_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def timed_setup(workload, tracer=None):
    """Import permdyn and run the workload's set-up, traced if a Tracer is given.

    Returns (raw seconds, state).
    """
    t0 = time.perf_counter()
    import permdyn
    if os.path.dirname(os.path.abspath(permdyn.__file__)) != os.path.join(SRC, "permdyn"):
        raise ImportError("permdyn was imported from %s, not from %s" % (permdyn.__file__, SRC))
    if tracer is not None:
        tracer.install()
    try:
        state = workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, state


def run_pass(ops, speedo=None):
    """Call every op once; (wall_s, [(op, latency_s, raw, error, start)]).

    With a Speedometer, reference samples are taken between ops; wall_s then
    includes them, the latencies do not.
    """
    from permdyn import PermdynError
    records = []
    t_pass = time.perf_counter()
    for op in ops:
        if speedo is not None:
            speedo.maybe_sample()
        t0 = time.perf_counter()
        try:
            raw, err = op.call(), None
        except PermdynError as exc:
            raw, err = None, "%s: %s" % (type(exc).__name__, exc)
        records.append((op, time.perf_counter() - t0, raw, err, t0))
    return time.perf_counter() - t_pass, records


def judge(records, checker):
    """Canonical answers, their digest, and the failures among the records."""
    from permdyn import PermdynError
    answers, failures = [], []
    for op, _, raw, err, _ in records:
        canon = None if err else op.canon(raw)
        answers.append([op.label, canon])
        if err is None:
            try:
                err = checker.check(op, canon)
            except PermdynError as exc:
                err = "check raised %s: %s" % (type(exc).__name__, exc)
        if err:
            failures.append("%s %s: %s" % (op.kind, op.label, err))
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), failures


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten or fewer samples the
    maximum is used.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def environment(seed):
    import numpy
    import permdyn
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.decode().strip() or commit
    return {"backend": permdyn.get_backend(), "numba_importable": has_numba,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "commit": commit}


def expected_digest(workload, seed):
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def setup_child_samples(name, count):
    out = []
    for _ in range(count):
        code, stdout = run_child([os.path.join(HERE, "run.py"), "--setup-only",
                                     "--workload", name])
        if code != 0:
            raise RuntimeError("set-up child failed with exit code %d" % code)
        out.append(float(stdout.strip().splitlines()[-1]))
    return out


def cli_import_seconds():
    code = "import time; t = time.perf_counter(); import permdyn.cli; " \
           "print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        rc, stdout = run_child(["-c", code])
        if rc != 0:
            raise RuntimeError("import permdyn.cli failed in a fresh interpreter")
        samples.append(float(stdout.strip()))
    return statistics.median(samples)


def steps_of(raw):
    return raw.period if raw.period is not None else len(raw.produced) - 1


def untraced(name, workload, state, inp, seconds):
    """Passes until `seconds` have passed.

    Latencies are speed-normalised (see speed.py) unless the workload opts out.
    """
    ops = workload.battery(state, inp)
    checker = workload.Checker(state, inp)
    speedo = Speedometer() if workload.normalise else None
    passes = []
    t_start = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - t_start < seconds):
        passes.append(run_pass(ops, speedo)[1])
    if speedo is not None:
        speedo.sample()
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli-small" else resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0

    digests, failures = [], []
    for records in passes:
        digest, bad = judge(records, checker)
        digests.append(digest)
        failures += bad
    # per pass: [(op, normalised seconds, raw seconds, raw answer, error)]
    norm = [[(op, dt * (speedo.factor(t0, t0 + dt) if speedo else 1.0), dt, raw, err)
             for op, dt, raw, err, t0 in records] for records in passes]
    lat = [r[1] for rows in norm for r in rows]
    tail_v, tail_pct, tail_n = tail(lat)
    # a pass's time, and the throughput of the one closed-loop caller, from each
    # operation's median over the passes: robust to a slow pass
    per_op = [statistics.median(rows[j][1] for rows in norm) for j in range(len(ops))]
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "queries_per_s": (len(ops) / sum(per_op), "1/s"),
        "geomean_ms": (1000 * statistics.geometric_mean(lat), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    factors = [n / r for rows in norm for _, n, r, _, _ in rows]
    details = {"passes": (len(passes), "count"),
               "raw_wall_s": (statistics.median(sum(r[2] for r in rows) for rows in norm), "s"),
               "speed_factor_min": (min(factors), "ratio"),
               "speed_factor_max": (max(factors), "ratio"),
               "p50_ms": (1000 * statistics.median(lat), "ms"),
               "tail_ms": (1000 * tail_v, "ms (p%.1f of %d)" % (tail_pct, tail_n))}
    by_kind = {}
    for rows in norm:
        for op, dt, _, raw, err in rows:
            by_kind.setdefault(op.kind, []).append((dt, raw, err))
    for kind, rows in sorted(by_kind.items()):
        ms = [1000 * dt for dt, _, _ in rows]
        details["%s_p50_ms" % kind] = (statistics.median(ms), "ms")
        tv, tp, tn = tail(ms)
        details["%s_tail_ms" % kind] = (tv, "ms (p%.1f of %d)" % (tp, tn))
    if "generate" in by_kind and name != "cli-small":
        steps = [1000 * dt / steps_of(raw) for dt, raw, err in by_kind["generate"]
                 if err is None and steps_of(raw)]
        if steps:
            details["generate_step_ms"] = (statistics.median(steps), "ms")
    if name == "cli-small":
        details["cli_p50_ms"] = details["p50_ms"]
        details["cli_tail_ms"] = details["tail_ms"]
        details["cli_startup_ms"] = details["bounds_p50_ms"]
    for op, dt, raw_dt, _, _ in norm[0]:
        details["op %s %s" % (op.kind, op.label)] = (1000 * dt, "ms (raw %.1f)" % (1000 * raw_dt))
    return metrics, details, digests, failures, len(lat)


def traced(name, workload, state, inp, tracer, setup_wall):
    """An untraced pass, then a traced one; `tracer` already holds the set-up's spans."""
    from tracer import layer_metrics, merge_summaries
    checker = workload.Checker(state, inp)
    base_wall, base_records = run_pass(workload.battery(state, inp))
    os.makedirs(OUT_DIR, exist_ok=True)
    if name == "cli-small":
        summary_path = os.path.join(OUT_DIR, "cli-summaries.jsonl")
        if os.path.exists(summary_path):
            os.remove(summary_path)
        child = os.path.join(HERE, "cli_child.py")
        ops = workload.battery(state, inp, launcher=lambda j: [
            child, summary_path, os.path.join(OUT_DIR, "cli-%02d.spans.npz" % j)])
        wall, records = run_pass(ops)
        with open(summary_path, encoding="utf-8") as fh:
            summary = merge_summaries([tracer.summary()] + [json.loads(line) for line in fh])
    else:
        # built after install() so that the ops call the wrapped functions
        tracer.install()
        try:
            ops = workload.battery(state, inp)
            wall, records = run_pass(ops)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
    tracer.save(os.path.join(OUT_DIR, "%s.spans.npz" % name))

    base_digest, failures = judge(base_records, checker)
    digest, bad = judge(records, checker)
    failures += bad
    if digest != base_digest:
        failures.append("traced answers differ from untraced answers")
    cli_walls = {}
    if name == "cli-small":
        for op, dt, _, _, _ in base_records:
            cli_walls.setdefault(op.kind, []).append(dt)
        cli_walls = {k: statistics.median(v) for k, v in cli_walls.items()}
    values = layer_metrics(summary, setup_wall + wall, wall - base_wall,
                           cli_import_seconds(), cli_walls)
    traced_wall = values["bench.traced_wall_s"]
    attributed = sum(summary["self_s"]) + values["bench.unattributed_s"]
    details = {"untraced_pass_s": (base_wall, "s"), "traced_pass_s": (wall, "s"),
               "traced_setup_s": (setup_wall, "s"),
               "attribution_error": (abs(attributed - traced_wall) / traced_wall, "ratio")}
    return values, details, [base_digest, digest], failures, 2 * len(ops)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time of a fresh process and exit")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if not os.path.isdir(os.path.join(SRC, "permdyn")):
        print("error: no permdyn package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace and not args.setup_only:
        from tracer import Tracer
        tracer = Tracer()
    try:
        setup_raw, state = timed_setup(workload, tracer)
    except ImportError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    setup_s = setup_raw * (speed_factor() if workload.normalise else 1.0)
    if args.setup_only:
        print(setup_s)
        return 0

    inp = workload.inputs(state, args.seed)
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        from tracer import per_layer_metrics
        values, details, digests, failures, attempted = traced(
            args.workload, workload, state, inp, tracer, setup_raw)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_metrics()}
    else:
        metrics, details, digests, failures, attempted = untraced(
            args.workload, workload, state, inp, args.seconds)
        samples = [setup_s] + setup_child_samples(args.workload, SETUP_SAMPLES - 1)
        metrics["setup_s"] = (statistics.median(samples), "s")
        units = end_to_end_names()
        if set(units) != set(metrics):
            raise RuntimeError("metrics %s do not match BENCHMARK.json" % sorted(metrics))
        metrics = {n: {"value": metrics[n][0], "unit": units[n]} for n in units}
    expect = expected_digest(args.workload, args.seed)
    if expect is not None and any(d != expect for d in digests):
        failures.append("answer digest differs from digests.json")
    failed = min(len(failures), attempted)
    details["fail_share"] = (failed / attempted, "ratio")

    print("digest %s" % digests[0])
    for msg in failures:
        print("FAIL %s" % msg)
    for n, m in metrics.items():
        print("metric %s %.6g %s" % (n, m["value"], m["unit"]))
    for n, (v, u) in details.items():
        print("detail %s %.6g %s" % (n, v, u))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
