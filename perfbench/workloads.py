"""The four benchmark workloads: set-up, batteries of timed operations, and checks.

A workload provides
  setup()                   contexts and certified permutations (timed as setup_s),
  inputs(state, seed)       seeded inputs, made without the code under test,
  battery(state, inputs)    the operations of one pass, in order,
  Checker(state, inputs)    .check(op, answer) -> None, or a message for a wrong answer.

Every operation's raw result is turned into a JSON-able canonical answer
outside the timed section; answers are checked by a route independent of the
one that computed them and digested so that passes, traced runs and seeds
can be compared.

Nothing here imports permdyn at module level: the set-up timer starts before
the package is imported.
"""

import math
import os
import subprocess
import sys

from inputs import (all_irreducibles, format_prime_poly, is_irreducible_desc,
                    random_irreducibles, seeded_rng, star_edge_holds)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


class Op:
    """One timed call of a battery: kind, a label unique within the pass, the call."""

    __slots__ = ("kind", "label", "call", "canon")

    def __init__(self, kind, label, call, canon):
        self.kind, self.label, self.call, self.canon = kind, label, call, canon


def _coeffs(f):
    return [int(c) for c in f.coeffs]


def _strs(polys):
    return [str(f) for f in polys]


def _moebius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _ck_size(q, k):
    return sum(_moebius(k // d) * q ** d for d in range(1, k + 1) if k % d == 0)


def _expand(summary):
    return sorted(n for n, cnt in summary for _ in range(cnt))


# ---------------------------------------------------------------------------
# census-f2: exhaustive I_k questions over F_2 at k = 11, 12
# ---------------------------------------------------------------------------

# (k, label, family, parameter): x^n has family "mono"; L[h] has family "lin"
# with h ascending; "LH" is choose_LH(2, 11).
CENSUS_PERMS = (
    (11, "x^5", "mono", 5),
    (11, "L[x^2+x+1]", "lin", [1, 1, 1]),
    (11, "choose_LH(2,11)", "LH", None),
    (12, "x^11", "mono", 11),
    (12, "L[x^3+x+1]", "lin", [1, 1, 0, 1]),
)
# H = (x^11 - 1)/(x - 1) + x + 1 over F_2, the generator polynomial of choose_LH(2, 11)
LH_H = [0, 0] + [1] * 9


class Census:
    name = "census-f2"
    min_passes = 1
    normalise = True

    @staticmethod
    def setup():
        from permdyn import Poly, certify_perm, choose_LH, make_field_ctx, q_associate
        ctxs = {k: make_field_ctx(2, 1, k) for k in (11, 12)}
        perms = []
        for k, label, family, param in CENSUS_PERMS:
            ctx = ctxs[k]
            if family == "mono":
                P = certify_perm(ctx, Poly(ctx.Fq, [0] * param + [1]))
            elif family == "lin":
                P = certify_perm(ctx, q_associate(Poly(ctx.Fq, param)))
            else:
                P = choose_LH(2, 11)
            perms.append((k, label, family, param, P))
        return {"ctxs": ctxs, "perms": perms}

    @staticmethod
    def inputs(state, seed):
        irr = {k: all_irreducibles(2, k) for k in (11, 12)}
        f0 = seeded_rng(seed, "census-f0").choice(irr[11])
        return {"irr": irr, "f0": f0}

    @staticmethod
    def battery(state, inp):
        from permdyn import (Poly, enumerate_irreducibles, fixed_count_formula,
                             fixed_points_direct, graph_Ik, iterate_generation, spectrum_Ck)
        ops = []
        for k, label, family, param, P in state["perms"]:
            ctx = state["ctxs"][k]
            tag = "k%d/%s" % (k, label)
            ops += [
                Op("enumerate", tag, lambda c=ctx, k=k: enumerate_irreducibles(c.Fq, k), _strs),
                Op("graph_Ik", tag, lambda c=ctx, P=P: graph_Ik(c, P),
                   lambda g: {"nodes": g.nodes, "cycles": g.cycles}),
                Op("fixed_direct", tag, lambda c=ctx, P=P: fixed_points_direct(c, P), _strs),
                Op("fixed_formula", tag, lambda c=ctx, P=P: fixed_count_formula(c, P), int),
                Op("spectrum_Ck", tag, lambda c=ctx, P=P: spectrum_Ck(c, P),
                   lambda s: list(s.lengths)),
            ]
        ctx = state["ctxs"][11]
        LH = state["perms"][2][4]
        f0 = Poly(ctx.Fq, inp["f0"])
        ops.append(Op("generate", "k11/choose_LH(2,11)",
                      lambda: iterate_generation(ctx, LH, f0),
                      lambda r: {"produced": _strs(r.produced), "period": r.period}))
        return ops

    class Checker:
        def __init__(self, state, inp):
            self.state, self.inp = state, inp
            self.oracle = {k: [format_prime_poly(a) for a in v] for k, v in inp["irr"].items()}
            self.coeffs = {format_prime_poly(a): a for v in inp["irr"].values() for a in v}
            self.perm = {"k%d/%s" % (k, label): (family, param, _coeffs(P.poly))
                         for k, label, family, param, P in state["perms"]}
            self._closed = {}

        def closed(self, tag):
            """(fixed count, C_k cycle summary) by the closed forms, per permutation."""
            if tag not in self._closed:
                from permdyn import (Poly, fixed_count_linearized, fixed_count_monomial,
                                     linearized_cycle_structure, monomial_cycle_structure)
                family, param, _ = self.perm[tag]
                k = int(tag[1:3])
                ctx = self.state["ctxs"][k]
                if family == "mono":
                    self._closed[tag] = (fixed_count_monomial(ctx, param),
                                         monomial_cycle_structure(2, k, param))
                else:
                    h = Poly(ctx.Fq, LH_H if family == "LH" else param)
                    self._closed[tag] = (fixed_count_linearized(ctx, h),
                                         linearized_cycle_structure(2, k, h))
            return self._closed[tag]

        def edges_hold(self, tag, pairs):
            """Whether star(P, f) = g for every (f, g) pair of I_k texts."""
            P = self.perm[tag][2]
            c = self.coeffs
            return all(f in c and g in c and star_edge_holds(c[f], c[g], P, 2) for f, g in pairs)

        def check(self, op, ans):
            k = int(op.label[1:3])
            oracle = self.oracle[k]
            if op.kind == "enumerate":
                return None if ans == oracle else "I_k differs from sympy's irreducibles"
            if op.kind == "graph_Ik":
                if ans["nodes"] != oracle:
                    return "graph_Ik nodes are not I_k"
                if sorted(f for c in ans["cycles"] for f in c) != sorted(oracle):
                    return "graph_Ik cycles do not partition I_k"
                edges = [(c[j], c[(j + 1) % len(c)]) for c in ans["cycles"] for j in range(len(c))]
                return None if self.edges_hold(op.label, edges) else "graph_Ik has a wrong edge"
            if op.kind == "fixed_direct":
                if len(ans) != self.closed(op.label)[0]:
                    return "direct fixed count differs from the closed form"
                return None if self.edges_hold(op.label, [(f, f) for f in ans]) else \
                    "a listed fixed point is not fixed"
            if op.kind == "fixed_formula":
                return None if ans == self.closed(op.label)[0] else \
                    "fixed_count_formula differs from the closed form"
            if op.kind == "spectrum_Ck":
                return None if ans == _expand(self.closed(op.label)[1]) else \
                    "C_k spectrum differs from the closed-form cycle structure"
            if op.kind == "generate":
                from permdyn import Poly, bound_linearized
                if [i for i, c in enumerate(self.perm[op.label][2]) if c] != \
                        [2 ** i for i in range(2, 11)]:
                    return "choose_LH(2,11) is not the q-associate of H"
                bound = math.ceil(bound_linearized(2, 11, Poly(self.state["ctxs"][11].Fq, LH_H)))
                prod, period = ans["produced"], ans["period"]
                if period is None or period < bound or len(prod) != period:
                    return "generation period misses the linearized bound"
                if prod[0] != format_prime_poly(self.inp["f0"]):
                    return "generated sequence does not start at f0"
                edges = [(prod[j], prod[(j + 1) % period]) for j in range(period)]
                return None if self.edges_hold(op.label, edges) else \
                    "a generation step is not a star step"
            return "unknown operation"


# ---------------------------------------------------------------------------
# queries-k20: a seeded stream of star/diamond/generate queries at Q = 2^20
# ---------------------------------------------------------------------------

QUERY_BLOCK = {"star": 20, "diamond": 3, "generate": 1}
GENERATE_STEPS = 4
QUERY_SEEDS = 8


class Queries:
    name = "queries-k20"
    min_passes = 4
    normalise = True

    @staticmethod
    def setup():
        from permdyn import Poly, certify_perm, make_field_ctx, q_associate
        ctx = make_field_ctx(2, 1, 20)
        perms = {"x^7": certify_perm(ctx, Poly(ctx.Fq, [0] * 7 + [1])),
                 "L[x^2+x+1]": certify_perm(ctx, q_associate(Poly(ctx.Fq, [1, 1, 1])))}
        return {"ctx": ctx, "perms": perms}

    @staticmethod
    def inputs(state, seed):
        rng = seeded_rng(seed, "queries")
        polys = random_irreducibles(rng, 2, 20, QUERY_SEEDS)
        kinds = [kind for kind, n in QUERY_BLOCK.items() for _ in range(n)]
        rng.shuffle(kinds)
        names = sorted(state["perms"])
        stream = [(kind, rng.choice(names), rng.randrange(len(polys))) for kind in kinds]
        return {"polys": polys, "stream": stream}

    @staticmethod
    def battery(state, inp):
        from permdyn import Poly, diamond, iterate_generation, star
        ctx = state["ctx"]
        ops = []
        for j, (kind, pname, fi) in enumerate(inp["stream"]):
            P = state["perms"][pname]
            f = Poly(ctx.Fq, inp["polys"][fi])
            label = "%02d/%s/%s/f%d" % (j, kind, pname, fi)
            if kind == "star":
                ops.append(Op(kind, label, lambda P=P, f=f: star(ctx, P, f), _coeffs))
            elif kind == "diamond":
                ops.append(Op(kind, label, lambda P=P, f=f: diamond(ctx, P, f), _coeffs))
            else:
                ops.append(Op(kind, label, lambda P=P, f=f: iterate_generation(
                    ctx, P, f, max_steps=GENERATE_STEPS),
                    lambda r: {"produced": [_coeffs(g) for g in r.produced],
                               "period": r.period}))
        return ops

    class Checker:
        def __init__(self, state, inp):
            self.state, self.inp = state, inp
            self._done = {}

        def _irreducible20(self, c):
            return len(c) == 21 and c[-1] == 1 and is_irreducible_desc(c[::-1], 2)

        def check(self, op, ans):
            key = (op.label, repr(ans))
            if key not in self._done:
                self._done[key] = self._check(op, ans)
            return self._done[key]

        def _check(self, op, ans):
            from permdyn import Poly, star
            ctx = self.state["ctx"]
            _, kind, pname, fname = op.label.split("/")
            P = self.state["perms"][pname]
            f = self.inp["polys"][int(fname[1:])]
            if kind == "star":
                if not self._irreducible20(ans):
                    return "star image is not irreducible"
                return None if star_edge_holds(f, ans, _coeffs(P.poly), 2) else \
                    "star image does not divide f(P(x))"
            if kind == "diamond":
                if not self._irreducible20(ans):
                    return "diamond image is not irreducible"
                back = star(ctx, P, Poly(ctx.Fq, ans))
                return None if _coeffs(back) == f else "star(P, diamond(P, f)) != f"
            prod, period = ans["produced"], ans["period"]
            # closed after `period` steps, or GENERATE_STEPS steps without closing
            steps = [(a, b) for a, b in zip(prod, prod[1:])] + ([(prod[-1], f)] if period else [])
            if prod[0] != f or len(steps) != (period or GENERATE_STEPS):
                return "generation did not run %d steps from f" % GENERATE_STEPS
            for a, b in steps:
                if not self._irreducible20(b) or _coeffs(star(ctx, P, Poly(ctx.Fq, a))) != b:
                    return "generate step differs from a standalone star"
            return None


# ---------------------------------------------------------------------------
# towers-m2: table-mode fields F_9^3, F_25^2, F_4^6
# ---------------------------------------------------------------------------

# (p, m, k, n of x^n, h of L[h] ascending); the Moebius map is M[1,1,1,0] throughout
TOWERS = (
    (3, 2, 3, 5, [1, 1]),
    (5, 2, 2, 7, [2, 1]),
    (2, 2, 6, 11, [2, 1, 1]),
)


class Towers:
    name = "towers-m2"
    min_passes = 1
    # the speed reference tracks prime-mode work; on these table-mode
    # operations normalising doubled the run-to-run spread
    normalise = False

    @staticmethod
    def setup():
        from permdyn import (Matrix2, Poly, certify_perm, make_field_ctx, moebius_poly_rep,
                             q_associate)
        towers = []
        for p, m, k, n, h in TOWERS:
            ctx = make_field_ctx(p, m, k)
            A = Matrix2(ctx.Fq, 1, 1, 1, 0)
            towers.append({
                "tag": "%d,%d,%d" % (p, m, k), "ctx": ctx, "n": n, "h": h, "A": A,
                "mono": certify_perm(ctx, Poly(ctx.Fq, [0] * n + [1])),
                "lin": certify_perm(ctx, q_associate(Poly(ctx.Fq, h))),
                "moeb": moebius_poly_rep(ctx, A),
            })
        return {"towers": towers}

    @staticmethod
    def inputs(state, seed):
        rng = seeded_rng(seed, "towers")
        sigmas = []
        for t in state["towers"]:
            ctx = t["ctx"]
            sigma = list(range(_ck_size(ctx.q, ctx.k) // ctx.k))
            rng.shuffle(sigma)
            sigmas.append(sigma)
        return {"sigmas": sigmas}

    @staticmethod
    def battery(state, inp):
        from permdyn import graph_Ck, graph_Ik, gk_compose, gk_inverse, realize_permutation

        def graph_canon(g):
            return {"summary": sorted(g.summary), "cycles": g.cycles}

        def poly_canon(P):
            return _coeffs(P.poly)

        ops = []
        for t, sigma in zip(state["towers"], inp["sigmas"]):
            ctx, tag = t["ctx"], t["tag"]
            for fam in ("mono", "lin", "moeb"):
                ops.append(Op("graph_Ck", "%s/%s" % (tag, fam),
                              lambda c=ctx, P=t[fam]: graph_Ck(c, P), graph_canon))
            ops += [
                Op("graph_Ik", tag + "/lin", lambda c=ctx, P=t["lin"]: graph_Ik(c, P),
                   lambda g: {"nodes": g.nodes, "cycles": g.cycles}),
                Op("gk_compose", tag + "/lin.moeb",
                   lambda c=ctx, t=t: gk_compose(c, t["lin"], t["moeb"]), poly_canon),
                Op("gk_inverse", tag + "/lin", lambda c=ctx, P=t["lin"]: gk_inverse(c, P),
                   poly_canon),
                Op("realize", tag + "/sigma",
                   lambda c=ctx, s=sigma: realize_permutation(c, s), poly_canon),
            ]
        return ops

    class Checker:
        def __init__(self, state, inp):
            self.state, self.inp = state, inp
            self.towers = {t["tag"]: (i, t) for i, t in enumerate(state["towers"])}

        @staticmethod
        def image(t, what):
            """The map on F_{q^k} from its defining formula, one element at a time."""
            from permdyn import moebius_eval
            ctx = t["ctx"]
            F = ctx.Fqk
            if what == "mono":
                return lambda a: F.pow(a, t["n"])
            if what == "lin":
                def lin(a):
                    out = 0
                    for i, c in enumerate(t["h"]):
                        out = F.add(out, F.mul(c, F.pow(a, ctx.q ** i)))
                    return out
                return lin
            return lambda a: moebius_eval(ctx, t["A"], a)

        def check(self, op, ans):
            import numpy as np
            from permdyn import (Poly, PermPoly, diamond, enumerate_irreducibles, gk_compose,
                                 linearized_cycle_structure, moebius_cycle_structure,
                                 monomial_cycle_structure, perm_table, roots_in_ext)
            from permdyn.textio import parse_poly
            tag, what = op.label.split("/")
            i, t = self.towers[tag]
            ctx = t["ctx"]
            q, k = ctx.q, ctx.k
            if op.kind == "graph_Ck":
                if sum(len(c) for c in ans["cycles"]) != _ck_size(q, k):
                    return "graph_Ck does not cover C_k"
                image = self.image(t, what)
                if any(image(c[j]) != c[(j + 1) % len(c)] for c in ans["cycles"]
                       for j in range(len(c))):
                    return "graph_Ck has a wrong edge"
                if what == "mono":
                    expect = monomial_cycle_structure(q, k, t["n"])
                elif what == "lin":
                    expect = linearized_cycle_structure(q, k, Poly(ctx.Fq, t["h"]))
                elif k >= 3:
                    expect = moebius_cycle_structure(q, k, t["A"])
                else:
                    return None
                return None if ans["summary"] == sorted(expect) else \
                    "graph_Ck summary differs from the closed form"
            if op.kind == "graph_Ik":
                members = [f for c in ans["cycles"] for f in c]
                if len(ans["nodes"]) != _ck_size(q, k) // k or sorted(members) != sorted(ans["nodes"]):
                    return "graph_Ik cycles do not partition I_k"
                # star(P, f) = g exactly when diamond(P, g) = f
                for c in ans["cycles"]:
                    for j, f in enumerate(c):
                        g = parse_poly(ctx.Fq, c[(j + 1) % len(c)])
                        if str(diamond(ctx, t["lin"], g)) != f:
                            return "graph_Ik has a wrong edge"
                return None
            P = PermPoly(Poly(ctx.Fq, ans), ctx.key)
            if op.kind == "gk_compose":
                expect = perm_table(ctx, t["lin"])[perm_table(ctx, t["moeb"])]
                return None if np.array_equal(perm_table(ctx, P), expect) else \
                    "composition differs from composing value tables"
            if op.kind == "gk_inverse":
                ident = gk_compose(ctx, t["lin"], P)
                return None if _coeffs(ident.poly) == [0, 1] else "L after its inverse is not x"
            if op.kind == "realize":
                # P must carry the roots of f_i onto the roots of f_sigma(i)
                sigma = self.inp["sigmas"][i]
                irr = enumerate_irreducibles(ctx.Fq, k)
                table = perm_table(ctx, P)
                roots = [roots_in_ext(ctx, f) for f in irr]
                for a, b in enumerate(sigma):
                    if not np.array_equal(np.sort(table[roots[a]]), roots[b]):
                        return "realized polynomial does not induce sigma"
                return None
            return "unknown operation"


# ---------------------------------------------------------------------------
# cli-small: permdyn command-line subprocesses at k <= 8
# ---------------------------------------------------------------------------

CLI_CONTEXTS = ((2, 1, 5), (2, 1, 6), (2, 1, 7), (2, 1, 8), (3, 1, 4), (3, 2, 2))


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def run_child(argv, timeout=120):
    """Run a Python child from the repository root; (returncode, stdout)."""
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
    return proc.returncode, proc.stdout.decode()


class Cli:
    name = "cli-small"
    min_passes = 3
    # subprocess start-up is paid in the kernel and loader, which the speed
    # reference does not track; normalising only added noise
    normalise = False

    @staticmethod
    def setup():
        import permdyn.cli  # noqa: F401
        from permdyn import make_field_ctx
        return {"ctxs": {pmk: make_field_ctx(*pmk) for pmk in CLI_CONTEXTS}}

    @staticmethod
    def inputs(state, seed):
        rng = seeded_rng(seed, "cli")
        f8 = [format_prime_poly(a) for a in random_irreducibles(rng, 2, 8, 3)]
        sigma = list(range(6))  # |I_5| over F_2
        rng.shuffle(sigma)
        os.makedirs(OUT_DIR, exist_ok=True)
        sigma_path = os.path.join(OUT_DIR, "sigma-%d.json" % seed)
        with open(sigma_path, "w", encoding="utf-8") as fh:
            fh.write("[%s]\n" % ", ".join(str(s) for s in sigma))
        field = lambda p, m, k: ["--p", str(p), "--m", str(m), "--k", str(k)]  # noqa: E731
        invocations = [
            ("bounds", ["bounds"] + field(3, 1, 53) + ["--family", "tau"]),
            ("bounds", ["bounds"] + field(2, 1, 7) + ["--family", "monomial", "--n", "3"]),
            ("star", ["star"] + field(2, 1, 8) + ["--perm", "x^7", "--f", f8[0]]),
            ("diamond", ["diamond"] + field(2, 1, 8) + ["--perm", "L[x^2+x+1]", "--f", f8[1]]),
            ("enumerate", ["enumerate"] + field(2, 1, 8)),
            ("fixed", ["fixed"] + field(2, 1, 8) + ["--perm", "x^7", "--method", "both"]),
            ("graph", ["graph"] + field(2, 1, 6) + ["--perm", "x^5", "--on", "ck",
                                                    "--format", "dot"]),
            ("graph", ["graph"] + field(2, 1, 7) + ["--perm", "L[x^2+x+1]", "--on", "ik",
                                                    "--format", "json"]),
            ("graph", ["graph"] + field(3, 2, 2) + ["--perm", "x^7", "--on", "ik",
                                                    "--output", "json"]),
            ("spectrum", ["spectrum"] + field(3, 1, 4) + ["--perm", "x^7"]),
            ("generate", ["generate"] + field(2, 1, 8) + ["--perm", "x^7", "--seed-poly", f8[2]]),
            ("realize", ["realize"] + field(2, 1, 5) + ["--sigma", sigma_path]),
        ]
        return {"f8": f8, "sigma": sigma, "invocations": invocations}

    @staticmethod
    def battery(state, inp, launcher=lambda j: ["-m", "permdyn.cli"]):
        """One op per invocation; launcher(j) gives the interpreter arguments before argv."""
        return [Op(sub, "%02d/%s" % (j, sub),
                   lambda j=j, argv=argv: run_child(launcher(j) + argv),
                   lambda r: {"code": r[0], "stdout": r[1]})
                for j, (sub, argv) in enumerate(inp["invocations"])]

    class Checker:
        def __init__(self, state, inp):
            self.state, self.inp = state, inp
            self.expected = [expected_cli_stdout(state, inp, j) for j in
                             range(len(inp["invocations"]))]

        def check(self, op, ans):
            j = int(op.label[:2])
            if ans["code"] != 0:
                return "exit code %d" % ans["code"]
            return None if ans["stdout"] == self.expected[j] else \
                "stdout differs from the in-process answer"


def expected_cli_stdout(state, inp, j):
    """The bytes invocation j must print, from in-process library calls."""
    from permdyn import (Poly, bound_monomial, certify_perm, diamond, fixed_points_direct,
                         graph_Ck, graph_Ik, iterate_generation,
                         enumerate_irreducibles, q_associate, realize_permutation, spectrum_Ck,
                         spectrum_Ik, star, tau)
    from permdyn.textio import parse_poly
    ctxs = state["ctxs"]

    def mono(ctx, n):
        return certify_perm(ctx, Poly.one(ctx.Fq).shift(n))

    def lin(ctx, text):
        return certify_perm(ctx, q_associate(parse_poly(ctx.Fq, text)))

    f8 = inp["f8"]
    c8 = ctxs[(2, 1, 8)]
    if j == 0:
        out = "ceil(tau/k) = %d" % math.ceil(tau(3, 53) / 53)
    elif j == 1:
        out = "bound = %s" % bound_monomial(2, 7, 3)
    elif j == 2:
        out = str(star(c8, mono(c8, 7), parse_poly(c8.Fq, f8[0])))
    elif j == 3:
        out = str(diamond(c8, lin(c8, "x^2+x+1"), parse_poly(c8.Fq, f8[1])))
    elif j == 4:
        out = "\n".join(_strs(enumerate_irreducibles(c8.Fq, 8)))
    elif j == 5:
        fixed = fixed_points_direct(c8, mono(c8, 7))
        out = "\n".join(_strs(fixed) + ["%d fixed points" % len(fixed)])
    elif j == 6:
        c = ctxs[(2, 1, 6)]
        out = graph_Ck(c, mono(c, 5)).to_dot()
    elif j == 7:
        c = ctxs[(2, 1, 7)]
        out = graph_Ik(c, lin(c, "x^2+x+1")).to_json()
    elif j == 8:
        c = ctxs[(3, 2, 2)]
        out = graph_Ik(c, mono(c, 7)).to_json()
    elif j == 9:
        c = ctxs[(3, 1, 4)]
        sc, si = spectrum_Ck(c, mono(c, 7)), spectrum_Ik(c, mono(c, 7))
        out = "\n".join(["S_P = {%s}" % ", ".join(str(n) for n in sc.S),
                         "S_P* = {%s}" % ", ".join(str(n) for n in si.S),
                         "mu_k = %d" % sc.mu, "mu_k* = %d" % si.mu])
    elif j == 10:
        rep = iterate_generation(c8, mono(c8, 7), parse_poly(c8.Fq, f8[2]))
        period = "unreached" if rep.period is None else rep.period
        out = "\n".join(["f_%d = %s" % (i, f) for i, f in enumerate(rep.produced)]
                        + ["period = %s" % period])
    else:
        c = ctxs[(2, 1, 5)]
        out = str(realize_permutation(c, inp["sigma"]))
    return out + "\n"


WORKLOADS = {w.name: w for w in (Census, Queries, Towers, Cli)}
