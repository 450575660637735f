"""Command line exposing enumeration, star/diamond, fixed points, graphs, and bounds."""

import argparse
import json
import math
import re
import sys

from .context import DEFAULT_GUARD, base_field, check_tower, frobenius_orbits, make_field_ctx
from .dynamics import (
    diamond,
    fixed_count_formula,
    fixed_points_direct,
    graph_Ck,
    graph_Ik,
    spectrum_Ck,
    spectrum_Ik,
    star,
)
from .errors import GuardExceeded, MalformedInput, PermdynError
from .genirr import bound_linearized, bound_monomial, iterate_generation, tau
from .permgroup import Matrix2, certify_perm, moebius_poly_rep, realize_permutation
from .polys import Poly, q_associate
from .textio import format_coeffs, parse_int, parse_poly, split_outside_brackets

__all__ = ["parse_perm_expr", "main"]

_MONOMIAL_RE = re.compile(r"^x(?:\^(\d+))?$")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedInput(message)


def _build_ctx(args):
    ext = None
    if args.modulus is not None:
        ext = parse_poly(base_field(args.p, args.m, args.guard_override), args.modulus,
                         args.guard_override)
    return make_field_ctx(args.p, args.m, args.k, ext_modulus=ext, guard=args.guard_override)


def _scalar(field, text, guard):
    c = parse_poly(field, text, guard)
    if c.degree > 0:
        raise MalformedInput("matrix entries must be scalars")
    return c.coeff(0)


def parse_perm_expr(ctx, expr, guard=DEFAULT_GUARD):
    """Certified permutation from x^N, L[POLY], M[a,b,c,d], or a raw polynomial.

    Polynomial text with an exponent above `guard`, an x^N with N longer than
    int() reads, or an L[h] of degree q^deg(h) above the guard raises
    GuardExceeded.
    """
    return certify_perm(ctx, _read_perm(ctx, expr, guard))


def _read_perm(ctx, expr, guard):
    """The P that parse_perm_expr certifies, before it is certified: a Poly for x^N, L[POLY]
    and a raw polynomial, and for M[a,b,c,d] its representative, which always permutes."""
    s = expr.strip()
    mono = _MONOMIAL_RE.match(s)
    if mono:
        # x^n and x^(1 + (n - 1) mod (Q - 1)) agree on F_{q^k}
        n = parse_int(mono.group(1) or "1", guard)
        if n >= 1:
            n = 1 + (n - 1) % (ctx.Q - 1)
        return Poly.one(ctx.Fq).shift(n)
    if s.startswith("L[") and s.endswith("]"):
        h = parse_poly(ctx.Fq, s[2:-1], guard)
        if h.degree > 0 and ctx.q ** h.degree > guard:
            raise GuardExceeded("L[h] has degree q^%d, above the guard %d" % (h.degree, guard))
        return q_associate(h)
    if s.startswith("M[") and s.endswith("]"):
        return moebius_poly_rep(ctx, _matrix(ctx, s[2:-1], guard))
    return parse_poly(ctx.Fq, s, guard)


def _matrix(ctx, text, guard):
    """The Matrix2 over F_q whose four entries `text` lists, as in M[text]."""
    entries = [t for _, t in split_outside_brackets(text, ",")]
    if len(entries) != 4:
        raise MalformedInput("M[a,b,c,d] takes exactly four entries")
    return Matrix2(ctx.Fq, *(_scalar(ctx.Fq, t, guard) for t in entries))


def _cmd_enumerate(args, ctx):
    orbits = frobenius_orbits(ctx)
    names = format_coeffs(orbits.field, orbits.coeffs)
    if args.output == "json":
        return json.dumps(names)
    return "\n".join(names)


def _cmd_apply(args, ctx):
    # P is certified by the operation, which reads f first and names the tower, P and f
    out = args.op(ctx, _read_perm(ctx, args.perm, args.guard_override),
                  parse_poly(ctx.Fq, args.f, args.guard_override))
    if args.output == "json":
        return json.dumps({"result": str(out)})
    return str(out)


def _cmd_fixed(args, ctx):
    P = parse_perm_expr(ctx, args.perm, args.guard_override)
    fixed = None
    if args.method in ("direct", "both"):
        polys = fixed_points_direct(ctx, P)
        fixed = format_coeffs(ctx.Fq, [f.coeffs for f in polys]) if polys else []
    # the formula checks its count against the fixed points that the direct route lists
    count = len(fixed) if args.method == "direct" else fixed_count_formula(ctx, P)
    if args.output == "json":
        return json.dumps({"fixed": fixed, "count": count})
    lines = (fixed or []) + ["%d fixed points" % count]
    return "\n".join(lines)


def _cmd_graph(args, ctx):
    P = parse_perm_expr(ctx, args.perm, args.guard_override)
    g = graph_Ck(ctx, P) if args.on == "ck" else graph_Ik(ctx, P)
    fmt = args.format or ("json" if args.output == "json" else "dot")
    return g.to_dot() if fmt == "dot" else g.to_json()


def _cmd_spectrum(args, ctx):
    P = parse_perm_expr(ctx, args.perm, args.guard_override)
    sc = spectrum_Ck(ctx, P)
    si = spectrum_Ik(ctx, P)
    if args.output == "json":
        return json.dumps({"S": sc.S, "S_star": si.S, "mu": sc.mu, "mu_star": si.mu})
    return "\n".join([
        "S_P = {%s}" % ", ".join(str(n) for n in sc.S),
        "S_P* = {%s}" % ", ".join(str(n) for n in si.S),
        "mu_k = %d" % sc.mu,
        "mu_k* = %d" % si.mu,
    ])


def _cmd_generate(args, ctx):
    if args.max_steps is not None and args.max_steps < 0:
        raise MalformedInput("--max-steps must be >= 0")
    P = parse_perm_expr(ctx, args.perm, args.guard_override)
    f0 = parse_poly(ctx.Fq, args.seed_poly, args.guard_override)
    report = iterate_generation(ctx, P, f0, max_steps=args.max_steps)
    if args.output == "json":
        return report.to_json()
    lines = ["f_%d = %s" % (i, f) for i, f in enumerate(report.produced)]
    lines.append("period = %s" % ("unreached" if report.period is None else report.period))
    return "\n".join(lines)


def _sigma_indices(ctx, raw, guard):
    orbits = frobenius_orbits(ctx)

    def to_index(v):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise MalformedInput("sigma entry %s is neither an index nor a polynomial"
                                 % json.dumps(v))
        return v if isinstance(v, int) else orbits.index(parse_poly(ctx.Fq, v, guard))

    if isinstance(raw, dict):
        pairs = [(parse_int(a) if a.lstrip("-").isdigit() else a, b) for a, b in raw.items()]
    elif isinstance(raw, list) and raw and all(isinstance(v, list) and len(v) == 2 for v in raw):
        pairs = raw
    elif isinstance(raw, list):
        pairs = enumerate(raw)
    else:
        raise MalformedInput("sigma file must hold a JSON object or array")
    return [(to_index(a), to_index(b)) for a, b in pairs]


def _cmd_realize(args, ctx):
    try:
        with open(args.sigma, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MalformedInput("cannot read sigma file: %s" % exc)
    except ValueError as exc:  # invalid JSON, or an integer longer than int() reads
        raise MalformedInput("sigma file is not valid JSON: %s" % exc)
    P = realize_permutation(ctx, _sigma_indices(ctx, raw, args.guard_override))
    if args.output == "json":
        return json.dumps({"perm": str(P)})
    return str(P)


def _cmd_bounds(args, ctx):
    check_tower(args.p, args.m, args.k)  # no F_{q^k} is built, so no guard applies
    q = args.p ** args.m
    if args.family == "tau":
        ceiling = math.ceil(tau(args.p, args.k) / args.k)
        if args.output == "json":
            return json.dumps({"family": "tau", "ceiling": ceiling})
        return "ceil(tau/k) = %d" % ceiling
    if args.family == "monomial":
        if args.n is None:
            raise MalformedInput("--family monomial needs --n")
        bound = bound_monomial(q, args.k, args.n)
    else:
        if args.g is None:
            raise MalformedInput("--family linearized needs --g")
        g = parse_poly(base_field(args.p, args.m, args.guard_override), args.g,
                       args.guard_override)
        bound = bound_linearized(q, args.k, g)
    if args.output == "json":
        return json.dumps({"family": args.family, "bound": str(bound)})
    return "bound = %s" % bound


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="characteristic of the base field")
    common.add_argument("--m", type=int, default=1, help="degree of F_q over F_p (default 1)")
    common.add_argument("--k", type=int, required=True, help="degree of the irreducibles under study")
    common.add_argument("--modulus", help="defining polynomial of F_{q^k} over F_q")
    common.add_argument("--guard-override", type=int, default=DEFAULT_GUARD,
                        help="replace the default q^k exhaustive-operation guard")
    common.add_argument("--output", choices=("text", "json"), default="text",
                        help="output format (default text)")

    parser = _Parser(prog="permdyn",
                     description="Dynamics of permutation polynomials on irreducible "
                                 "polynomials over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, text, func, needs_ctx=True):
        # no prefix matching, so that --seed is not read as --seed-poly
        sp = sub.add_parser(name, parents=[common], help=text, allow_abbrev=False)
        sp.set_defaults(func=func, needs_ctx=needs_ctx)
        return sp

    add("enumerate", "list I_k in lex order", _cmd_enumerate)

    for name, op, text in (("star", star, "compute P*f"),
                           ("diamond", diamond, "compute the minimal polynomial of P(alpha)")):
        sp = add(name, text, _cmd_apply)
        sp.set_defaults(op=op)
        sp.add_argument("--perm", required=True, help="x^N, L[POLY], M[a,b,c,d], or a polynomial")
        sp.add_argument("--f", required=True, help="monic irreducible of degree k")

    sp = add("fixed", "fixed polynomials of the star action", _cmd_fixed)
    sp.add_argument("--perm", required=True)
    sp.add_argument("--method", choices=("direct", "formula", "both"), default="both")

    sp = add("graph", "functional graph on C_k or I_k", _cmd_graph)
    sp.add_argument("--perm", required=True)
    sp.add_argument("--on", choices=("ck", "ik"), required=True)
    sp.add_argument("--format", choices=("dot", "json"), default=None)

    sp = add("spectrum", "cycle-length spectra on C_k and I_k", _cmd_spectrum)
    sp.add_argument("--perm", required=True)

    sp = add("generate", "iterate f -> P*f from a seed", _cmd_generate)
    sp.add_argument("--perm", required=True)
    sp.add_argument("--seed-poly", required=True, help="irreducible seed f_0")
    sp.add_argument("--max-steps", type=int, default=None)

    sp = add("realize", "interpolate a permutation of I_k", _cmd_realize)
    sp.add_argument("--sigma", required=True,
                    help="JSON file: image list, [src, dst] pairs, or an object")

    sp = add("bounds", "period lower bounds", _cmd_bounds, needs_ctx=False)
    sp.add_argument("--family", choices=("monomial", "linearized", "tau"), required=True)
    sp.add_argument("--n", type=int, default=None, help="monomial exponent")
    sp.add_argument("--g", default=None, help="polynomial for the linearized family")

    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = args.func(args, _build_ctx(args) if args.needs_ctx else None)
    except PermdynError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a fault of the program, reported like a failed check
        print("error: %s: %s" % (type(exc).__name__, " ".join(str(exc).split())),
              file=sys.stderr)
        return 4
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does): exit as a process
        # killed by SIGPIPE would, and point stdout at os.devnull so that the
        # flush at interpreter exit does not raise again
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
