"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs a cheap subset of its battery once. Every answer checker
must reject a wrong answer (and only that one), and a traced pass must give
the same answers as an untraced pass.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import format_prime_poly  # noqa: E402
from tracer import CLI_SUBCOMMANDS, Tracer  # noqa: E402
from workloads import Op  # noqa: E402


def _swap(xs, i, j):
    xs = list(xs)
    xs[i], xs[j] = xs[j], xs[i]
    return xs


def _swap_in_cycles(ans, key="cycles"):
    """Swap the first two nodes of the first cycle of length >= 3: two wrong images."""
    out = dict(ans)
    cycles = [list(c) for c in ans[key]]
    c = next(c for c in cycles if len(c) >= 3)
    c[0], c[1] = c[1], c[0]
    out[key] = cycles
    return out


def _bump_coeff(ans):
    out = list(ans)
    out[1] = (out[1] + 1) % 2 if len(out) > 1 else out[1]
    return out


def _other_poly(inp):
    return lambda ans: next(f for f in inp["polys"] if f != ans)


# op kind -> function giving a wrong canonical answer from the right one
def _mutations(name, inp):
    if name == "census-f2":
        return {
            "enumerate": lambda a: _swap(a, 0, 1),
            "graph_Ik": _swap_in_cycles,
            "fixed_direct": lambda a: a + [format_prime_poly(inp["irr"][11][0])],
            "fixed_formula": lambda a: a + 1,
            "spectrum_Ck": lambda a: [a[0] + 1] + a[1:],
            "generate": lambda a: dict(a, produced=_swap(a["produced"], 1, 2)),
        }
    if name == "queries-k20":
        return {
            "star": _other_poly(inp),
            "diamond": _other_poly(inp),
            "generate": lambda a: dict(a, produced=_swap(a["produced"], 1, 2)),
        }
    if name == "towers-m2":
        return {
            "graph_Ck": _swap_in_cycles,
            "graph_Ik": _swap_in_cycles,
            "gk_compose": _bump_coeff,
            "gk_inverse": _bump_coeff,
            "realize": _bump_coeff,
        }
    return {kind: (lambda a: dict(a, stdout=a["stdout"] + "x")) for kind in CLI_SUBCOMMANDS}


def _subset(name, ops):
    if name == "census-f2":
        return [op for op in ops if op.label in ("k11/x^5", "k11/choose_LH(2,11)")
                and op.kind in ("enumerate", "fixed_direct", "fixed_formula", "spectrum_Ck",
                                "generate")
                or op.label == "k11/x^5" and op.kind == "graph_Ik"]
    if name == "queries-k20":
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        return list(first.values())
    if name == "towers-m2":
        return [op for op in ops if op.label.startswith("5,2,2/")
                or op.label.startswith("3,2,3/") and op.kind == "graph_Ck"]
    return [op for op in ops if op.kind in ("bounds", "star", "graph")][:4]


class _Subset:
    """A workload whose battery is the cheap subset used by these tests."""

    def __init__(self, base):
        self.base = base
        self.name = base.name
        self.Checker = base.Checker

    def battery(self, state, inp, **kw):
        return _subset(self.name, self.base.battery(state, inp, **kw))


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def prepared(request):
    base = workloads.WORKLOADS[request.param]
    state = base.setup()
    inp = base.inputs(state, 0)
    return _Subset(base), state, inp


def test_every_checker_rejects_a_wrong_answer(prepared):
    w, state, inp = prepared
    checker = w.Checker(state, inp)
    _, records = run.run_pass(w.battery(state, inp))
    assert run.judge(records, checker)[1] == []
    mutations = _mutations(w.name, inp)
    kinds = {rec[0].kind for rec in records}
    assert kinds <= set(mutations)
    for i, (op, *rest) in enumerate(records):
        bad_op = Op(op.kind, op.label, op.call,
                    lambda r, c=op.canon, m=mutations[op.kind]: m(c(r)))
        faulty = records[:i] + [(bad_op, *rest)] + records[i + 1:]
        failures = run.judge(faulty, checker)[1]
        assert len(failures) == 1, (op.kind, op.label, failures)
        assert failures[0].startswith("%s %s:" % (op.kind, op.label))


def test_traced_and_untraced_answers_agree(prepared):
    w, state, inp = prepared
    values, details, digests, failures, attempted = run.traced(w.name, w, state, inp,
                                                               Tracer(), 0.0)
    assert failures == []
    assert digests[0] == digests[1]
    assert details["attribution_error"][0] < 0.05
    assert values["bench.traced_wall_s"] > 0
    assert attempted == 2 * len(w.battery(state, inp))


def test_wrong_answer_gives_nonzero_exit(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Cli, "min_passes", 1)
    monkeypatch.setattr(workloads.Cli, "battery",
                        staticmethod(lambda state, inp: [Op("bounds", "00/bounds",
                                                            lambda: (0, "wrong\n"),
                                                            lambda r: {"code": r[0],
                                                                       "stdout": r[1]})]))
    code = run.main(["--workload", "cli-small", "--seed", "0", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1
