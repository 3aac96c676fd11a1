#!/usr/bin/env python3
"""Check the sweep's cycle table in closed form against an enumeration of
the template's cycles for every sweep size, and measure what each costs.

A sweep reads each point's least cycle slope through u_1 off a table of
the n cycles of the deformation template's slope graph that can be a
point's least, given in closed form (strata._least_cycles, proof in its
docstring).  For every n from 3 to strata.MAX_VERIFY_N and every (p, d)
of CASES, this script enumerates the cycles through u_1 of the graph of
the point whose parameters are all 1 (built from its display), each edge
tagged with the bit of its parameter and with EXTRA when it is an extra
black edge, keeps those that least can return (stable Fraction slope
order, less every cycle whose mask holds the mask of an earlier one),
and checks that they are the table's (weight, length, mask), in order,
and that the table's settle agrees with the settle at the largest slope
of all the cycles.  It does so at the default precision, at 2N (the
doubled table), and at N = 1 with its doubled table, and it lists the n
whose table at the default precision does not settle (none expected).

It then records, at n = 160 and 256 (p = 3, d = 1), the CPU time of one
table build and of one enumeration of the template's cycles with their
paths, and the peak RSS of a fresh process that makes the context and
then the table or the enumeration.

It writes one JSON document; the exit code is 1 on any mismatch.  It is
not part of the test suite (about two minutes); the tests compare the
two on a grid up to n = 64 (tests/test_cycle_table.py).

Usage:
    PYTHONPATH=src python3 calibration/cycle_table.py \\
        > calibration/cycle_table.json
"""

import json
import platform
import subprocess
import sys
from fractions import Fraction
from time import process_time

from gustrata import (DeformationPoint, __version__, build_graph,
                      cycles_through, default_precision, deformation_display,
                      make_context)
from gustrata.displayzoo import _deformation_template
from gustrata.fcrystal import U
from gustrata.slopegraph import EXTRA, SlopeGraph, settle_potentials
from gustrata.strata import MAX_VERIFY_N, _CycleTable, _template_graph

CASES = [(3, 1), (2, 1), (3, 2)]
COST_N = (160, 256)
U1 = U(1)


def enumerate_cycles(ctx, n, base):
    """(graph, cycles): the graph of the all-ones point at ctx and its
    cycles through u_1 in enumeration order, each edge tagged with its
    parameter's bit (from the template's slots) and with EXTRA when it has
    positive weight and is a parameter edge or has weight at least base."""
    point = DeformationPoint.from_ints(ctx, n, (1,) * (n - 1))
    graph = build_graph(deformation_display(ctx, point))
    _, slots, _ = _deformation_template(ctx, n)
    bits = [{i: 0 if k is None else 2 << k for i, _, k in col}
            for col in slots]
    tags = [[bits[a][b] | (EXTRA if w and (bits[a][b] or w >= base) else 0)
             for b, w in row] for a, row in enumerate(graph._succ)]
    return graph, cycles_through(graph, U1, tags)


def least_candidates(cycles):
    """The cycles least(skip) can return, in stable Fraction slope order:
    every cycle whose mask holds no earlier cycle's mask."""
    out = []
    for c in sorted(cycles, key=lambda c: Fraction(c.weight, c.length)):
        if all(e.mask & ~c.mask for e in out):
            out.append(c)
    return out


def compare(table, n, base):
    """The mismatches of one table against the enumeration, and the
    number of cycles enumerated."""
    graph, cycles = enumerate_cycles(table.ctx, n, base)
    bad = []
    got = [(c.weight, c.length, mask) for mask, c in table.by_slope]
    want = [(c.weight, c.length, c.mask) for c in least_candidates(cycles)]
    if got != want:
        bad.append("cycles")
    if any(c.slope != Fraction(c.weight, c.length) or c.mask != mask
           for mask, c in table.by_slope):
        bad.append("slopes")
    if table.graph(0)._succ != graph._succ:
        bad.append("graph")
    top = max(cycles, key=lambda c: Fraction(c.weight, c.length))
    off = [[] if v == U1 else row
           for v, row in zip(graph.vertices, graph._succ)]
    settled = settle_potentials(SlopeGraph._from_successors(
        graph.vertices, off), top.weight, top.length) is not None
    if table.settled != settled:
        bad.append("settled")
    return bad, len(cycles)


def check_case(p, d):
    bad, tables, cycles, unsettled = [], 0, 0, []
    for n in range(3, MAX_VERIFY_N + 1):
        ctx = make_context(p, d, default_precision(n, d))
        low = _CycleTable(ctx.at_precision(1), n)
        base = _CycleTable(ctx, n)
        if not base.settled:
            unsettled.append(n)
        for table, base_n in ((base, ctx.N), (base.doubled, ctx.N),
                              (low, 1), (low.doubled, 1)):
            what, count = compare(table, n, base_n)
            bad += [{"n": n, "N": table.ctx.N, "base": base_n, "what": w}
                    for w in what]
            tables += 1
            cycles += count
        print(f"p={p} d={d} n={n}: {len(bad)} mismatches so far",
              file=sys.stderr)
    return {"p": p, "d": d, "n": [3, MAX_VERIFY_N], "tables": tables,
            "cycles_enumerated": cycles, "unsettled_n": unsettled,
            "mismatches": bad}


def probe(kind, n):
    """Run in a child: make the context, then the table or the
    enumeration; print the peak RSS in MB.  It is read from VmHWM, which
    starts afresh at exec, unlike ru_maxrss, which keeps the forking
    parent's peak."""
    ctx = make_context(3, 1, default_precision(n, 1))
    if kind == "table":
        _CycleTable(ctx, n)
    elif kind == "enumeration":
        labels, succ, tags = _template_graph(ctx, n)
        cycles_through(SlopeGraph._from_successors(labels, succ), U1, tags)
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status
                  if line.startswith("VmHWM:"))
    print(kb / 1024)


def peak_rss(kind, n):
    out = subprocess.run([sys.executable, __file__, "--probe", kind, str(n)],
                         capture_output=True, text=True, check=True).stdout
    return round(float(out), 1)


def costs(n):
    """CPU seconds of one table build and one enumeration at (3, 1), best
    of twenty, and the peak RSS of the child processes."""
    ctx = make_context(3, 1, default_precision(n, 1))
    table = _CycleTable(ctx, n)
    graph = table.graph(0)
    build, enum = [], []
    for _ in range(20):
        start = process_time()
        _CycleTable(ctx, n)
        mid = process_time()
        cycles = cycles_through(graph, U1, table.tags)
        end = process_time()
        build.append(mid - start)
        enum.append(end - mid)
    return {"n": n, "p": 3, "d": 1, "table_cycles": len(table.by_slope),
            "template_cycles": len(cycles),
            "path_entries": sum(len(c.path) for c in cycles),
            "table_build_s": round(min(build), 4),
            "enumeration_s": round(min(enum), 4),
            "peak_rss_mb": {kind: peak_rss(kind, n)
                            for kind in ("context", "table", "enumeration")}}


def main():
    if sys.argv[1:2] == ["--probe"]:
        probe(sys.argv[2], int(sys.argv[3]))
        return 0
    cases = [check_case(p, d) for p, d in CASES]
    doc = {
        "description": "the sweep's cycle table in closed form "
                       "(strata._least_cycles) against the cycles through "
                       "u_1 enumerated on the graph of the all-ones point, "
                       "at the default N, at 2N, at N = 1 and at 2 over a "
                       "base of 1, for n = 3 to MAX_VERIFY_N; costs at "
                       "p = 3, d = 1: CPU seconds of one table build and "
                       "of one enumeration of the template's cycles (best "
                       "of 20), and the peak RSS of a fresh process that "
                       "makes the context and then nothing, the table or "
                       "the enumeration",
        "version": __version__,
        "python": platform.python_version(),
        "cases": cases,
        "costs": [costs(n) for n in COST_N],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 1 if any(case["mismatches"] for case in cases) else 0


if __name__ == "__main__":
    sys.exit(main())
