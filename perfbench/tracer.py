"""Per-layer tracing of permdyn from outside the package.

`Tracer.install()` rebinds the public functions listed in LAYERS in every
`permdyn.*` namespace that holds them (and the listed `GF` methods on the
class), so calls made through any import path are seen. Each call records a
span (name, start, end, parent) in compact in-memory arrays; nothing is
written until `save()`. Self time is a span's duration minus the durations of
its direct child spans, so the self times of all spans plus the time outside
any span add up to the traced wall time exactly.
"""

import sys
import time
from array import array

import numpy as np

# (module, function) pairs; "GF.x" names a method of permdyn.fields.GF.
LAYERS = (
    ("_kernels", "conv_p"), ("_kernels", "conv_t"),
    ("_kernels", "divmod_p"), ("_kernels", "divmod_t"),
    ("_kernels", "eval_p"), ("_kernels", "eval_t"),
    ("fields", "GF.extension"), ("fields", "GF.vmul"), ("fields", "GF.vpow"),
    ("polys", "is_irreducible"), ("polys", "poly_gcd"), ("polys", "powmod"),
    ("polys", "compose"), ("polys", "fold_mod"), ("polys", "psi_d"),
    ("polys", "first_irreducible"), ("polys", "factor"),
    ("polys", "enumerate_irreducibles"),
    ("context", "make_field_ctx"), ("context", "roots_in_ext"),
    ("context", "enumerate_Ck"), ("context", "minimal_poly"), ("context", "frobenius"),
    ("permgroup", "certify_perm"), ("permgroup", "lagrange_interpolate_all"),
    ("permgroup", "gk_compose"), ("permgroup", "gk_inverse"),
    ("permgroup", "realize_permutation"), ("permgroup", "moebius_poly_rep"),
    ("permgroup", "frobenius_stable"),
    ("dynamics", "star"), ("dynamics", "diamond"), ("dynamics", "fixed_points_direct"),
    ("dynamics", "fixed_count_formula"), ("dynamics", "graph_Ik"), ("dynamics", "graph_Ck"),
    ("dynamics", "spectrum_Ck"), ("dynamics", "spectrum_Ik"),
    ("genirr", "iterate_generation"), ("genirr", "choose_LH"),
    ("textio", "parse_poly"), ("textio", "format_poly"),
)

# metric names must start with a letter, so permdyn._kernels reports as "kernels"
SPAN_NAMES = tuple("%s.%s" % (mod.lstrip("_"), fn) for mod, fn in LAYERS)

CLI_SUBCOMMANDS = ("bounds", "star", "diamond", "enumerate", "fixed", "graph",
                   "spectrum", "generate", "realize")

# Counters beyond calls/self_s, keyed by span name: (counter, unit, better).
EXTRA_COUNTERS = {
    "kernels.conv_p": [("ops", "count", "lower")],
    "kernels.conv_t": [("ops", "count", "lower")],
    "kernels.divmod_p": [("ops", "count", "lower")],
    "kernels.divmod_t": [("ops", "count", "lower")],
    "kernels.eval_p": [("ops", "count", "lower")],
    "kernels.eval_t": [("ops", "count", "lower")],
    "polys.powmod": [("exp_bits", "count", "lower")],
    "polys.enumerate_irreducibles": [("candidates", "count", "lower"),
                                     ("found", "count", "higher"),
                                     ("hit_ratio", "ratio", "higher")],
    "context.make_field_ctx": [("builds", "count", "lower"),
                               ("hit_ratio", "ratio", "higher")],
    "context.roots_in_ext": [("points", "count", "lower"),
                             ("roots_per_point", "ratio", "higher")],
    "permgroup.certify_perm": [("points", "count", "lower")],
    "dynamics.fixed_points_direct": [("gcd_per_poly", "ratio", "lower")],
    "genirr.iterate_generation": [("steps", "count", "higher")],
}


def _metric_name(span, counter):
    # GF.extension reports builds rather than calls: every call builds tables
    if span == "fields.GF.extension":
        return "fields.extension." + ("builds" if counter == "calls" else counter)
    return "%s.%s" % (span, counter)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span in SPAN_NAMES:
        out.append((_metric_name(span, "calls"), "count", "lower"))
        out.append((_metric_name(span, "self_s"), "s", "lower"))
        for counter, unit, better in EXTRA_COUNTERS.get(span, ()):
            out.append((_metric_name(span, counter), unit, better))
        if span == "fields.GF.extension":
            out.append(("fields.table_bytes", "B", "lower"))
    out.append(("cli.import_s", "s", "lower"))
    for sub in CLI_SUBCOMMANDS:
        out.append(("cli.%s.wall_s" % sub, "s", "lower"))
    out.append(("bench.traced_wall_s", "s", "lower"))
    out.append(("bench.trace_overhead_s", "s", "lower"))
    out.append(("bench.unattributed_s", "s", "lower"))
    return out


def _extra_for(span):
    """Per-call hook adding argument-derived counters, or None."""
    if span in ("kernels.conv_p", "kernels.conv_t"):
        return lambda t, i, a, out: t.add(span + ".ops", len(a[0]) * len(a[1]))
    if span in ("kernels.divmod_p", "kernels.divmod_t"):
        return lambda t, i, a, out: t.add(span + ".ops", (len(a[0]) - len(a[1]) + 1) * len(a[1]))
    if span in ("kernels.eval_p", "kernels.eval_t"):
        return lambda t, i, a, out: t.add(span + ".ops", len(a[0]) * len(a[1]))
    if span == "fields.GF.extension":
        return lambda t, i, a, out: t.add("fields.table_bytes", out.exp.nbytes + out.log.nbytes)
    if span == "polys.powmod":
        return lambda t, i, a, out: t.add("polys.powmod.exp_bits", int(a[1]).bit_length())
    if span == "polys.enumerate_irreducibles":
        def hook(t, i, a, out):
            t.add(span + ".candidates", a[0].order ** a[1])
            t.add(span + ".found", len(out))
            t.found_at[i] = len(out)
        return hook
    if span == "context.make_field_ctx":
        def hook(t, i, a, out):
            t.contexts[id(out)] = out
        return hook
    if span == "context.roots_in_ext":
        def hook(t, i, a, out):
            t.add(span + ".points", a[0].Q)
            t.add(span + ".roots", len(out))
        return hook
    if span == "permgroup.certify_perm":
        return lambda t, i, a, out: t.add(span + ".points", a[0].Q)
    return None


class Tracer:
    """Span recorder for the permdyn functions listed in LAYERS."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters = {}
        self.found_at = {}
        self.contexts = {}
        self._undo = []

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, nid, extra):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if extra is not None:
                extra(tracer, i, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Rebind every listed function; call uninstall() to restore them."""
        import permdyn  # noqa: F401  (loads every submodule)
        from permdyn.fields import GF

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "permdyn" or name.startswith("permdyn."))]
        for nid, (modname, fname) in enumerate(LAYERS):
            span = SPAN_NAMES[nid]
            extra = _extra_for(span)
            if fname.startswith("GF."):
                attr = fname[3:]
                raw = GF.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, nid, _skip_first(extra)))
                else:
                    new = self._wrap(raw, nid, _skip_first(extra))
                setattr(GF, attr, new)
                self._undo.append((GF, attr, raw))
                continue
            orig = getattr(sys.modules["permdyn." + modname], fname)
            new = self._wrap(orig, nid, extra)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
                        self._undo.append((mod, attr, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def arrays(self):
        """The recorded spans as numpy arrays (names, parents, starts, ends)."""
        return (np.frombuffer(self.names, dtype=np.int32).copy(),
                np.frombuffer(self.parents, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy())

    def summary(self):
        """Span statistics in the form merge_summaries() and layer_metrics() take."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        nspan = len(SPAN_NAMES)
        out = {
            "calls": np.bincount(names, minlength=nspan).tolist(),
            "self_s": np.bincount(names, weights=self_s, minlength=nspan).tolist(),
            "toplevel_s": float(dur[~has_parent].sum()),
            "counters": dict(self.counters),
        }
        out["counters"]["context.make_field_ctx.builds"] = len(self.contexts)
        # gcd calls made by fixed_points_direct itself, and the polynomials it enumerated
        fpd = SPAN_NAMES.index("dynamics.fixed_points_direct")
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        out["counters"]["fpd.gcd"] = int(np.count_nonzero(
            (names == SPAN_NAMES.index("polys.poly_gcd")) & (parent_name == fpd)))
        enum_in_fpd = np.flatnonzero(
            (names == SPAN_NAMES.index("polys.enumerate_irreducibles")) & (parent_name == fpd))
        out["counters"]["fpd.polys"] = sum(self.found_at.get(int(i), 0) for i in enum_in_fpd)
        out["counters"]["genirr.iterate_generation.steps"] = int(np.count_nonzero(
            (names == SPAN_NAMES.index("dynamics.star"))
            & (parent_name == SPAN_NAMES.index("genirr.iterate_generation"))))
        return out

    def save(self, path):
        """Write every recorded span to an .npz file."""
        names, parents, starts, ends = self.arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), names=names, parents=parents,
                 starts=starts, ends=ends)


def _skip_first(extra):
    """The hook for a method: its first argument is self (or cls), not a layer argument."""
    if extra is None:
        return None
    return lambda t, i, a, out: extra(t, i, a[1:], out)


def merge_summaries(summaries):
    """Sum several summary() results (one per traced process)."""
    nspan = len(SPAN_NAMES)
    out = {"calls": [0] * nspan, "self_s": [0.0] * nspan, "toplevel_s": 0.0, "counters": {}}
    for s in summaries:
        out["calls"] = [a + b for a, b in zip(out["calls"], s["calls"])]
        out["self_s"] = [a + b for a, b in zip(out["self_s"], s["self_s"])]
        out["toplevel_s"] += s["toplevel_s"]
        for key, val in s["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + val
    return out


def layer_metrics(summary, traced_wall_s, trace_overhead_s, cli_import_s, cli_walls):
    """Every per-layer metric value, keyed by name (see per_layer_metrics)."""
    c = summary["counters"]
    calls = dict(zip(SPAN_NAMES, summary["calls"]))
    values = {}
    for nid, span in enumerate(SPAN_NAMES):
        values[_metric_name(span, "calls")] = calls[span]
        values[_metric_name(span, "self_s")] = summary["self_s"][nid]
    for span in ("kernels.conv_p", "kernels.conv_t", "kernels.divmod_p",
                 "kernels.divmod_t", "kernels.eval_p", "kernels.eval_t"):
        values[span + ".ops"] = c.get(span + ".ops", 0)
    values["fields.table_bytes"] = c.get("fields.table_bytes", 0)
    values["polys.powmod.exp_bits"] = c.get("polys.powmod.exp_bits", 0)
    cand = c.get("polys.enumerate_irreducibles.candidates", 0)
    found = c.get("polys.enumerate_irreducibles.found", 0)
    values["polys.enumerate_irreducibles.candidates"] = cand
    values["polys.enumerate_irreducibles.found"] = found
    values["polys.enumerate_irreducibles.hit_ratio"] = found / cand if cand else 0.0
    mk_calls = calls["context.make_field_ctx"]
    builds = c.get("context.make_field_ctx.builds", 0)
    values["context.make_field_ctx.builds"] = builds
    values["context.make_field_ctx.hit_ratio"] = (mk_calls - builds) / mk_calls if mk_calls else 0.0
    points = c.get("context.roots_in_ext.points", 0)
    values["context.roots_in_ext.points"] = points
    values["context.roots_in_ext.roots_per_point"] = (
        c.get("context.roots_in_ext.roots", 0) / points if points else 0.0)
    values["permgroup.certify_perm.points"] = c.get("permgroup.certify_perm.points", 0)
    fpd_polys = c.get("fpd.polys", 0)
    values["dynamics.fixed_points_direct.gcd_per_poly"] = (
        c.get("fpd.gcd", 0) / fpd_polys if fpd_polys else 0.0)
    values["genirr.iterate_generation.steps"] = c.get("genirr.iterate_generation.steps", 0)
    values["cli.import_s"] = cli_import_s
    for sub in CLI_SUBCOMMANDS:
        values["cli.%s.wall_s" % sub] = cli_walls.get(sub, 0.0)
    values["bench.traced_wall_s"] = traced_wall_s
    values["bench.trace_overhead_s"] = trace_overhead_s
    values["bench.unattributed_s"] = traced_wall_s - summary["toplevel_s"]
    return values
