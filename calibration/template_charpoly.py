#!/usr/bin/env python3
"""Check the closed-form charpoly of the deformation template and the
residue polygons read from it against Berkowitz for every sweep size.

The charpoly g = det(yI - X sigma(Y)) of the lane matrix at d <= 2 has a
closed form in the parameters' lifts (displayzoo._template_charpoly,
proof in its docstring), which gives the unit parts u_k of its
coefficients c_k = p^(k-1) u_k; a sweep reads each lane's polygon off
the u_k mod p (strata._chunk_polygons, _linalg.unit_slope_pairs), with
no lift, no p-adic lane and no Berkowitz run.  For every n from 3 to
strata.MAX_VERIFY_N and every (p, d) of CASES, this script takes a
seeded chunk of points (some parameters zero) and the zero point, at the
certifying precision N* = d n + 1, and checks that

* the closed form's coefficients, the u_k times their powers of p,
  equal lane by lane those Berkowitz gives for the lane matrix that
  displayzoo._template_lanes multiplies out (the product of its blocks'
  charpolys),
* each lane's polygon read off those coefficients, certified or None,
  is the one the Berkowitz route (fcrystal._graded_lane_pairs) reads,
  and
* so is each lane's residue polygon, the one a sweep reads.

It writes one JSON document: per case the points compared, the
mismatches (none expected) and the seconds each route took.  It is not
part of the test suite: Berkowitz on the lane matrices up to n = 256
takes several minutes.  The Berkowitz charpoly is the one the tests
compare with (berkowitz_charpoly in tests/_sweeps.py).

Usage:
    PYTHONPATH=src python3 calibration/template_charpoly.py \\
        > calibration/template_charpoly.json
"""

import json
import platform
import random
import sys
from pathlib import Path
from time import process_time

from gustrata import __version__, make_context
from gustrata._linalg import coefficient_slope_pairs
from gustrata.displayzoo import _template_lanes
from gustrata.fcrystal import _graded_lane_pairs, _graded_scale, _lane_polygons
from gustrata.strata import MAX_VERIFY_N, _chunk_polygons

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _sweeps import berkowitz_charpoly, closed_form_charpoly  # noqa: E402

CASES = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
SEED = 32
POINTS = 3  # seeded points per n, besides the zero point


def chunk(rng, n, q, points):
    """points seeded parameter code tuples, each code 0 with probability
    1/5, and the zero point."""
    rows = [tuple(0 if rng.random() < 0.2 else rng.randrange(1, q)
                  for _ in range(n - 1)) for _ in range(points)]
    return rows + [(0,) * (n - 1)]


def check(p, d, n, rows):
    """(mismatches, residue seconds, closed-form seconds, Berkowitz
    seconds) of one chunk at N*."""
    ctx = make_context(p, d, d * n + 1)
    start = process_time()
    residue = _chunk_polygons(ctx, n, rows)
    mid = process_time()
    lops, coeffs = closed_form_charpoly(ctx, n, rows)
    closed = _lane_polygons(coefficient_slope_pairs(
        lops, [coeffs], d, _graded_scale(d)), ctx.N)
    late = process_time()
    ref_lops, factors = _template_lanes(ctx, n, rows)
    ref = berkowitz_charpoly(ref_lops, factors, n)
    polygons = _lane_polygons(_graded_lane_pairs(ref_lops, factors), ctx.N)
    end = process_time()
    bad = []
    for lane, ints in enumerate(rows):
        if ([lops.unpack(c[lane]) for c in coeffs]
                != [ref_lops.unpack(c[lane]) for c in ref]):
            bad.append({"n": n, "point": list(ints), "what": "coefficients"})
        if closed[lane] != polygons[lane] or closed[lane] is None:
            bad.append({"n": n, "point": list(ints), "what": "polygon"})
        if residue[lane] != polygons[lane]:
            bad.append({"n": n, "point": list(ints),
                        "what": "residue polygon"})
    return bad, mid - start, late - mid, end - late


def main():
    cases = []
    for p, d in CASES:
        rng = random.Random(f"{SEED} {p} {d}")
        bad, residue_s, closed_s, berkowitz_s = [], 0.0, 0.0, 0.0
        compared = 0
        for n in range(3, MAX_VERIFY_N + 1):
            rows = chunk(rng, n, p ** d, POINTS)
            got = check(p, d, n, rows)
            bad += got[0]
            residue_s += got[1]
            closed_s += got[2]
            berkowitz_s += got[3]
            compared += len(rows)
            print(f"p={p} d={d} n={n}: {len(got[0])} mismatches",
                  file=sys.stderr)
        cases.append({"p": p, "d": d, "n": [3, MAX_VERIFY_N],
                      "points": compared, "mismatches": bad,
                      "residue_s": round(residue_s, 3),
                      "closed_form_s": round(closed_s, 3),
                      "berkowitz_s": round(berkowitz_s, 3)})
    doc = {
        "description": "closed-form charpoly of the deformation template's "
                       "lane matrix (displayzoo._template_charpoly) and the "
                       "residue polygons a sweep reads from it "
                       "(strata._chunk_polygons) against Berkowitz on the "
                       "same lanes, at N* = d n + 1; seconds are CPU time "
                       "of each route",
        "version": __version__,
        "seed": SEED,
        "python": platform.python_version(),
        "cases": cases,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 1 if any(case["mismatches"] for case in cases) else 0


if __name__ == "__main__":
    sys.exit(main())
