"""Command-line front end.

Subcommands: catalog (admissible polygon table), slopes (polygon plus
a-number, p-rank, signature of a module spec), graph (successor graph as
DOT or JSON), check (display validation and polarization report), verify
(local stratum sweep).  Exit codes: 0 success, 1 the mathematics
disagreed, 2 usage error or budget exceeded, 3 precision failure.

Identical invocations produce byte-identical output; every document embeds
p, d, N, the modulus polynomial and the tool version.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._version import __version__
from .displayzoo import parse_module_spec
from .fcrystal import PrecisionError, U, a_number, newton_slopes, p_rank, \
    polarization_check, signature, validate_display
from .slopegraph import build_graph, cycles_through, to_dot
from .strata import BudgetError, catalog, json_text, verify_local_strata
from .wittring import CapacityError, default_precision, make_context

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser():
    parser = _ArgumentParser(
        prog="gustrata",
        description="Dieudonne display computations: slope catalogs, "
                    "graphs, and local stratum verification.")
    parser.add_argument("--version", action="version",
                        version=f"gustrata {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # each subcommand's own parser, by name

    def add_parser(name, **kwargs):
        parser.commands[name] = sub.add_parser(name, **kwargs)
        return parser.commands[name]

    def add_context_args(p, need_n=False):
        if need_n:
            p.add_argument("--n", type=int, required=True,
                           help="rank parameter (rank = 2n)")
        p.add_argument("--p", type=int, default=3, help="prime (default 3)")
        p.add_argument("--d", type=int, default=1,
                       help="residue field degree (default 1)")
        p.add_argument("--precision", type=int, default=None,
                       help="truncation exponent N (default 4*n*d + 8)")

    p_cat = add_parser("catalog", help="admissible Newton polygons")
    add_context_args(p_cat, need_n=True)
    p_cat.add_argument("--format", choices=("json", "tsv"), default="json")

    p_slopes = add_parser("slopes", help="polygon and invariants of a "
                                         "module spec")
    p_slopes.add_argument("--module", required=True,
                          help='e.g. "N", "M(4)", "M(2)+N^2", '
                               '"def(5; s2=1)"')
    add_context_args(p_slopes)
    p_slopes.add_argument("--format", choices=("json", "tsv"),
                          default="json")

    p_graph = add_parser("graph", help="slope graph of a module spec")
    p_graph.add_argument("--module", required=True)
    add_context_args(p_graph)
    p_graph.add_argument("--dot", action="store_true",
                         help="emit Graphviz DOT (same as --format dot)")
    p_graph.add_argument("--format", choices=("json", "dot"), default=None)

    p_check = add_parser("check", help="validate a display and its "
                                       "polarization")
    p_check.add_argument("--module", required=True)
    add_context_args(p_check)

    p_verify = add_parser("verify", help="local stratum sweep")
    add_context_args(p_verify, need_n=True)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", default=None)
    group.add_argument("--random", type=int, metavar="COUNT", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=None,
                          help="max number of points (or set "
                               "GUSTRATA_POINT_BUDGET)")
    p_verify.add_argument("--format", choices=("json", "tsv"),
                          default="json")
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built on first use and shared by every later call:
    parse_args keeps no state between calls, each returns a new
    namespace."""
    return _build_parser()


def _parse_args(argv):
    """The namespace of argv.  When argv[0] names a subcommand, the rest is
    parsed by that subcommand's own parser, the one the top-level parser's
    subparsers action would hand it to, and command is set to the name;
    anything else goes through the top-level parser."""
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _make_module_context(args, half_rank):
    nprec = args.precision
    if nprec is None:
        nprec = default_precision(half_rank, args.d)
    return make_context(args.p, args.d, nprec)


def _doc_header(ctx):
    return {"context": ctx.to_json(), "version": __version__}


def _frac(x):
    return f"{x.numerator}/{x.denominator}"


def _cmd_catalog(args, out):
    if args.n < 3:
        raise UsageError(f"--n must be >= 3, got {args.n}")
    ctx = _make_module_context(args, args.n)
    entries = catalog(args.n)
    if args.format == "tsv":
        lines = [f"# n\t{args.n}", f"# context\t{json.dumps(ctx.to_json())}",
                 f"# version\t{__version__}",
                 "label\tj\tlambda_min\tcodim\tm\tr\tpolygon"]
        for e in entries:
            poly = " ".join(f"{_frac(s)}x{m}" for s, m in e.polygon.slopes)
            lines.append(f"{e.label}\t{'' if e.j is None else e.j}\t"
                         f"{_frac(e.lambda_min)}\t{e.codim}\t"
                         f"{e.decomposition[0]}\t{e.decomposition[1]}\t{poly}")
        out.write("\n".join(lines) + "\n")
    else:
        doc = {"n": args.n, **_doc_header(ctx),
               "strata": [e.to_json() for e in entries]}
        out.write(json_text(doc) + "\n")
    return EXIT_OK


def _parse_and_build(args):
    spec = parse_module_spec(args.module)
    ctx = _make_module_context(args, spec.half_rank)
    return spec, ctx, spec.build(ctx)


def _cmd_slopes(args, out):
    spec, ctx, display = _parse_and_build(args)
    polygon = newton_slopes(display)
    doc = {"module": str(spec), **_doc_header(ctx),
           "polygon": polygon.to_json(),
           "a_number": a_number(display),
           "p_rank": p_rank(display),
           "signature": list(signature(display))}
    if args.format == "tsv":
        lines = [f"# module\t{spec}",
                 f"# context\t{json.dumps(ctx.to_json())}",
                 f"# version\t{__version__}",
                 f"# a_number\t{doc['a_number']}",
                 f"# p_rank\t{doc['p_rank']}",
                 f"# signature\t{doc['signature'][0]},{doc['signature'][1]}",
                 "slope\tmult"]
        for s, m in polygon.slopes:
            lines.append(f"{_frac(s)}\t{m}")
        out.write("\n".join(lines) + "\n")
    else:
        out.write(json_text(doc) + "\n")
    return EXIT_OK


def _cmd_graph(args, out):
    fmt = args.format
    if args.dot:
        fmt = "dot"
    if fmt is None:
        fmt = "json"
    spec, ctx, display = _parse_and_build(args)
    graph = build_graph(display)
    if fmt == "dot":
        out.write(to_dot(graph, context=ctx, version=__version__))
        return EXIT_OK
    doc = {"module": str(spec), **_doc_header(ctx), **graph.to_json()}
    u1 = U(1)
    if u1 in graph.vertices:
        doc["cycles_through_u1"] = [c.to_json()
                                    for c in cycles_through(graph, u1)]
    out.write(json_text(doc) + "\n")
    return EXIT_OK


# The failed checks of a display whose det F vanishes mod p^N, and nothing
# else: the mathematics did not disagree, the precision ran out.
_V_UNDETERMINED = {"frobenius_invertible", "verschiebung_integral"}


def _cmd_check(args, out):
    spec, ctx, display = _parse_and_build(args)
    report = validate_display(display)
    doc = {"module": str(spec), **_doc_header(ctx),
           "validation": report.to_json()}
    ok = report.ok
    if report.ok:
        violations = polarization_check(display)
        doc["polarization_violations"] = [
            {"i": str(a), "j": str(b), "discrepancy": s.to_json()}
            for a, b, s in violations]
        ok = ok and not violations
    else:
        doc["polarization_violations"] = None
    doc["ok"] = ok
    out.write(json_text(doc) + "\n")
    if {c.name for c in report.failed()} == _V_UNDETERMINED:
        print("precision failure: V not computable at this precision",
              file=sys.stderr)
        return EXIT_PRECISION
    return EXIT_OK if ok else EXIT_DISAGREEMENT


def _cmd_verify(args, out):
    if args.n < 3:
        raise UsageError(f"--n must be >= 3, got {args.n}")
    if args.random is not None:
        mode, count = "random", args.random
    else:
        mode, count = "exhaustive", None
    report = verify_local_strata(
        args.n, args.p, args.d, mode=mode, count=count,
        seed=args.seed if mode == "random" else None,
        budget=args.budget, precision=args.precision)
    out.write(report.to_tsv() if args.format == "tsv"
              else report.to_json() + "\n")
    if report.precision_failures:
        nprec = report.mode["precision"]
        print(f"precision failure: {len(report.precision_failures)} of "
              f"{report.points} points not certified at N = {nprec} or "
              f"2N = {2 * nprec}", file=sys.stderr)
        return EXIT_PRECISION
    if not report.all_agree or report.lemma_violations:
        return EXIT_DISAGREEMENT
    return EXIT_OK


_COMMANDS = {
    "catalog": _cmd_catalog,
    "slopes": _cmd_slopes,
    "graph": _cmd_graph,
    "check": _cmd_check,
    "verify": _cmd_verify,
}


def main(argv=None, out=None):
    if argv is None:
        argv = sys.argv[1:]
    if out is None:
        out = sys.stdout
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, CapacityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
