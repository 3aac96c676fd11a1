"""Admissible Newton polygon catalog, classification, and the local
stratum verification harness.

For rank 2n there are exactly 1 + floor(n/2) admissible polygons: the
supersingular one (all slopes 1/2) and, for 1 <= j <= floor(n/2), the
polygon xi_{2j} with smallest slope 1/2 - 1/(2(floor(n/2)+1-j)), realized
by M(2(floor(n/2)+1-j)) + N^(n-m).  The harness specializes the universal
deformation at every residue field point (or a seeded random sample),
computes the polygon by the characteristic polynomial route, classifies
it, and compares with the vanishing-pattern prediction; it also checks the
cycle-slope upper bound and reports on the min-cycle-slope equality.

A sweep is one stream in three parts:

* sweep checks every limit (n at most MAX_VERIFY_N, the context's
  parameters, the capacity at 2N, the point budget) and makes the context,
  at the call and before any work; it returns the mode document, the
  context and a lazy iterator of PointRecords, one per point in order.
* evaluate_point makes one point's record: the retry at 2N when its
  polygon is not certified at N, the least slope of its cycles through
  u_1, and the lemma, remark, Karp and extra-edge entries the point adds
  to the report.
* reduce_records reads the records once, in order, without holding them,
  and builds the StrataReport; it classifies each polygon and reads the
  stratum counts and the agreement rate off the agreement matrix.
  verify_local_strata is reduce_records of sweep.

Every point of a sweep shares one context, one template and one basis, so
the stream reads polygons in lanes: it takes the points CHUNK (64) at a
time and reads each lane's polygon, exactly the one newton_slopes reads
for its point (fcrystal.newton_slopes_batch reads the same lanes off built
displays).  At d <= 2 the lane matrix X sigma(Y) has two factors, and
the coefficients of its charpoly are powers of p times integers u_k
known in closed form (displayzoo._template_charpoly): which u_k are units
decides the polygon (_linalg.unit_slope_pairs), so each lane's polygon is
read off residues mod p, with no Teichmuller lift, no p-adic lane, no
matrix product and no Berkowitz run.  At d >= 3 the twisted factors are
filled straight from the template and the lifts
(displayzoo._template_lanes), and one product and one Berkowitz run per
block serve the whole chunk.  Lanes with the same hulls share one
NewtonPolygon.

The lanes need less than N: every deformation display has val det A = n,
so a lane's certificate term is d n and any precision from N* = d n + 1
up certifies the same, true polygon.  At d <= 2 the residues decide it
at any N above d n.  At d >= 3, when N exceeds N*, the lanes, the lifts
they read and their charpolys run at N* in the context
ctx.at_precision(N*), and a lane not certified there all the same is read
again at N (see _records); below N* they run at N.  The cycle table, the
records' context, the retry at 2N and the report stay at N, and the
report names N.

A record holds the point's parameter codes, not the point: no point or
display is built for a point certified at N, a retried point builds both
at 2N, and PointRecord.point and PointRecord.display build them when they
are read.  reduce_records reads the predicted stratum off the codes.

The slope graph stage runs once per sweep and precision, on the template
(_CycleTable).  Every F entry of the template is a constant or an integer
f times the Teichmuller lift of one parameter, a unit when the parameter
is nonzero, so a point's graph is the template's graph without the edges
of its zero parameters, in the same order.  So its cycles through u_1 are
the template's cycles whose parameter mask avoids its zero set, in the
same order, and its least cycle is the first of them in slope order.
Only n of the template's cycles can be that first one, and they are known
in closed form (_least_cycles, with its proof): the table holds those n,
in slope order, and no cycle is enumerated.  A point whose least Newton
slope exceeds its least cycle slope, which the lemma rules out, names its
first violating cycle from an enumeration of its own graph.  A cycle that
avoids u_1 lies in the template's graph without u_1,
so one Bellman-Ford settle there, at the largest slope of the table,
shows for every point at once that its least cycle slope through u_1 is
its global minimum cycle mean.  Where that settle fails, Karp's algorithm
runs on every point's own graph and decides what is reported.  The
extra black edges are the positive-weight edges tagged EXTRA by the table
itself: the parameter edges, and at 2N the constant edges that vanish at
the sweep's precision N.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple

from ._version import __version__
from ._linalg import unit_slope_pairs
from .displayzoo import (DeformationPoint, _coefficients,
                         _deformation_template, _parameter_indices,
                         _template_charpoly, _template_lanes,
                         deformation_display)
from .fcrystal import (NewtonPolygon, PrecisionError, U, _graded_lane_pairs,
                       _graded_length, _graded_scale, _lane_polygons,
                       newton_slopes)
from .slopegraph import (EXTRA, SlopeGraph, cycles_through,
                         karp_min_cycle_mean, settle_potentials)
from .wittring import (RingContext, _check_capacity, _check_params,
                       default_precision, make_context)

__all__ = [
    "StratumDescriptor", "StrataReport", "BudgetError", "lambda_min",
    "catalog", "classify", "predicted_stratum", "verify_local_strata",
    "PointRecord", "sweep", "evaluate_point", "reduce_records",
    "DEFAULT_POINT_BUDGET", "BUDGET_ENV_VAR", "MAX_VERIFY_N",
]

DEFAULT_POINT_BUDGET = 100_000
BUDGET_ENV_VAR = "GUSTRATA_POINT_BUDGET"
# The vertex every checked cycle passes through.
_U1 = U(1)
# Points per lane chunk of a sweep (see _records).
CHUNK = 64
# Largest n a sweep accepts.  The point budget counts points, not their
# size: one point costs about n^3 in time and n^2 in memory, and a chunk
# holds up to CHUNK of them.  At n = 256, p = 3 a point takes about 0.6 s
# at d = 1 and 6 s at d = 2, and a chunk of 64 points peaks at about
# 60 MB and 165 MB (2-core Xeon, CPython 3.11).
MAX_VERIFY_N = 256


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured point budget."""


@dataclass(frozen=True)
class StratumDescriptor:
    """Catalog entry: label, minimal slope, full polygon, codimension
    (metadata), and the module decomposition (m, r)."""
    label: str
    j: int | None
    lambda_min: Fraction
    polygon: NewtonPolygon
    codim: int
    decomposition: tuple

    def to_json(self):
        return {
            "label": self.label,
            "j": self.j,
            "lambda_min": _frac_str(self.lambda_min),
            "polygon": self.polygon.to_json(),
            "codim": self.codim,
            "decomposition": {"m": self.decomposition[0],
                              "r": self.decomposition[1]},
        }


def _frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def json_text(obj):
    """The text of json.dumps(obj, indent=2), character for character.
    With an indent the standard library runs its pure-Python encoder;
    here dicts, lists and tuples are walked into one list of parts,
    joined once, a str goes through the C encode_basestring_ascii, an int
    through int.__repr__, a bool or None is its literal, and any other
    leaf or key goes through json.dumps itself."""
    out = []
    _json_parts(obj, out, "\n")
    return "".join(out)


# The writers of the leaves json_text writes itself, by exact type.
_JSON_LEAVES = {str: _encode_str, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _json_parts(obj, out, nl):
    """Append the parts of obj's indented text to out, nl the newline and
    indent its own lines start with."""
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + (inner := nl + "  ")
        for key, value in obj.items():
            out.append(sep + (_encode_str(key) if type(key) is str
                              else json.dumps({key: None})[1:-7]) + ": ")
            _json_parts(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep = "[" + (inner := nl + "  ")
        for value in obj:
            out.append(sep)
            _json_parts(value, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(obj))


def lambda_min(n, j):
    """Smallest slope of the stratum xi_{2j}: 1/2 - 1/(2(floor(n/2)+1-j)).

    Equals 0 exactly at j = floor(n/2), the locus with positive p-rank.
    """
    if not 1 <= j <= n // 2:
        raise ValueError(f"j must lie in [1, {n // 2}], got {j}")
    return Fraction(1, 2) - Fraction(1, 2 * (n // 2 + 1 - j))


def catalog(n):
    """All 1 + floor(n/2) admissible polygons for rank 2n, supersingular
    first, then xi_2, xi_4, ... (decreasing minimal slope)."""
    return list(_catalog(n))


@functools.lru_cache(maxsize=16)
def _catalog(n):
    """The catalog as a tuple, built once per n; its entries are
    immutable, so every caller may share them."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    out = []
    ss_decomp = (n, 0) if n % 2 else (n - 1, 1)
    out.append(StratumDescriptor(
        label="sigma", j=None, lambda_min=Fraction(1, 2),
        polygon=NewtonPolygon([(Fraction(1, 2), 2 * n)]),
        codim=(n - 1) - (n - 1) // 2, decomposition=ss_decomp))
    for j in range(1, n // 2 + 1):
        h = n // 2 + 1 - j
        m = 2 * h
        r = n - m
        parts = [(Fraction(h - 1, 2 * h), 2 * h),
                 (Fraction(h + 1, 2 * h), 2 * h)]
        if r:
            parts.append((Fraction(1, 2), 2 * r))
        out.append(StratumDescriptor(
            label=f"xi_{2 * j}", j=j, lambda_min=lambda_min(n, j),
            polygon=NewtonPolygon(parts), codim=n // 2 - j,
            decomposition=(m, r)))
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _labels(n):
    """The catalog's labels keyed by _slope_key of their polygons, built
    once per n beside _catalog(n)."""
    return {_slope_key(desc.polygon): desc.label for desc in _catalog(n)}


def _slope_key(polygon):
    """(numerator, denominator, multiplicity) of each slope in ascending
    order: equal exactly when the polygons are, and integers, which hash
    several times faster than the polygon's Fractions."""
    return tuple([(s.numerator, s.denominator, m) for s, m in polygon.slopes])


def classify(n, polygon):
    """Label for a rank-2n polygon: the catalog entry it equals, or
    "inadmissible"."""
    if polygon.rank != 2 * n:
        raise ValueError(
            f"rank mismatch: polygon has rank {polygon.rank}, expected {2 * n}")
    return _labels(n).get(_slope_key(polygon), "inadmissible")


@functools.lru_cache(maxsize=16)
def _predictors(indices):
    """(position in indices, stratum index j) of each parameter whose
    nonvanishing contributes j to predicted_stratum: s_{2j} for odd n;
    s_0 (j = 1) and s_{2i} (j = i + 1) for even n, the n whose indices
    include 0."""
    shift = 1 if 0 in indices else 0
    return tuple((t, i // 2 + shift if i else 1)
                 for t, i in enumerate(indices) if i % 2 == 0)


def predicted_stratum(point):
    """Stratum predicted from the vanishing pattern of the even-index
    parameters alone.

    Odd n: the stratum is xi_{2j*} for j* = max{j : s_{2j} != 0}, sigma
    when all even-index parameters vanish.  Even n: a nonzero s_{2i} with
    2 <= 2i <= n-2 contributes stratum index j = i + 1, a nonzero s_0
    contributes j = 1, and the stratum is the largest contributed index.
    The even-n bookkeeping (the index shift and the role of s_0) is the
    rule calibrated against brute-force slope computations at n = 4 and
    n = 6 and frozen; the table ships in calibration/ in the repo.
    """
    return _predicted(point.indices, point.values)


def _predicted(indices, values):
    """predicted_stratum of the parameters values at indices: field
    elements, or their integer codes, which vanish exactly when they do."""
    j = max((k for t, k in _predictors(indices) if values[t]), default=0)
    return f"xi_{2 * j}" if j else "sigma"


@dataclass
class StrataReport:
    """Deterministic summary of one verification sweep."""
    n: int
    p: int
    d: int
    mode: dict
    points: int
    agreement: dict
    agreement_rate: Fraction
    counts_by_stratum: dict
    lemma_violations: list
    remark_violations: list
    karp_disagreements: list
    extra_edge_effects: list
    precision_retries: int
    precision_failures: list
    s0_effect: dict | None
    context: dict
    version: str = __version__

    @property
    def all_agree(self):
        return self.agreement_rate == 1

    def to_json_obj(self):
        """Every field, in declaration order."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["agreement_rate"] = _frac_str(self.agreement_rate)
        return obj

    def to_json(self):
        return json_text(self.to_json_obj())

    def to_tsv(self):
        lines = [f"# n\t{self.n}", f"# p\t{self.p}", f"# d\t{self.d}",
                 f"# mode\t{json.dumps(self.mode)}",
                 f"# points\t{self.points}",
                 f"# agreement_rate\t{_frac_str(self.agreement_rate)}",
                 f"# lemma_violations\t{len(self.lemma_violations)}",
                 f"# remark_violations\t{len(self.remark_violations)}",
                 f"# karp_disagreements\t{len(self.karp_disagreements)}",
                 f"# extra_edge_effects\t{len(self.extra_edge_effects)}",
                 f"# precision_retries\t{self.precision_retries}",
                 f"# version\t{self.version}",
                 "stratum\tpoints"]
        for label in sorted(self.counts_by_stratum):
            lines.append(f"{label}\t{self.counts_by_stratum[label]}")
        return "\n".join(lines) + "\n"


# The report's lists of per-point entries, filled from PointRecord.entries.
_REPORT_LISTS = ("lemma_violations", "remark_violations", "karp_disagreements",
                 "extra_edge_effects", "precision_failures")


def _resolve_budget(budget):
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_POINT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None


def _check_budget(n, p, d, mode, count, seed, budget):
    """Raise BudgetError when the sweep would enumerate more points than
    the budget, and ValueError for a bad mode; runs before any context is
    built."""
    if mode == "exhaustive":
        exponent = d * (n - 1)
        # p^exponent >= 2^(exponent * bits / 2), bits the bit length of p,
        # so a total that long exceeds the budget: it is named as a power,
        # neither computed nor printed in full
        huge = exponent * p.bit_length() > max(
            10_000, 2 * int(budget).bit_length())
        total = f"{p}^{exponent}" if huge else p ** exponent
        if huge or total > budget:
            raise BudgetError(
                f"exhaustive sweep needs {total} points, budget is {budget} "
                f"(override with {BUDGET_ENV_VAR} or --budget)")
    elif mode == "random":
        if count is None or seed is None:
            raise ValueError("random mode needs count and seed")
        if count > budget:
            raise BudgetError(
                f"random sweep of {count} points exceeds budget {budget}")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _enumerate_points(n, q_res, mode, count, seed):
    """Yield parameter vectors as integer tuples, deterministically.  A
    random sweep draws each coordinate as Random(seed).randrange(q_res)
    does, in point-major order: getrandbits(k), k the bit length of
    q_res, drawn again until it lies below q_res."""
    width = n - 1
    if mode == "exhaustive":
        yield from itertools.product(range(q_res), repeat=width)
    else:
        bits = random.Random(seed).getrandbits
        k = q_res.bit_length()
        for _ in range(count):
            row = []
            for _ in range(width):
                r = bits(k)
                while r >= q_res:
                    r = bits(k)
                row.append(r)
            yield tuple(row)


class PointRecord(NamedTuple):
    """What one sweep point contributes to its report.

    ints are the point's parameter codes (the integers field_from_int
    reads), in the order of its parameter indices.  ctx is the sweep's
    context, at N, or the one at 2N when the point was retried, and
    polygon the point's polygon, certified at N (read off residues at
    d <= 2, and at N* <= N at d >= 3 when N exceeds it, see _records) or
    at 2N, and None when it is certified at neither N nor 2N.  min_cycle
    is the least slope of the cycles through u_1, or None without a
    polygon or without such a cycle.
    entries are the (report list, entry) pairs the point adds to the
    report's lists.  A record holds codes, not points: point and display
    are built from them at ctx when they are read."""
    ints: tuple
    ctx: RingContext
    polygon: NewtonPolygon | None
    retried: bool
    min_cycle: Fraction | None
    entries: tuple

    @property
    def point(self):
        """The point's DeformationPoint at ctx, built afresh at each
        read."""
        return DeformationPoint.from_ints(self.ctx, len(self.ints) + 1,
                                          self.ints)

    @property
    def display(self):
        """The point's display at ctx, built afresh at each read: a sweep
        reads its polygons from the template's lanes and keeps no
        display."""
        return deformation_display(self.ctx, self.point)


def sweep(n, p, d, mode="exhaustive", count=None, seed=None, budget=None,
          precision=None):
    """Check every limit, make the context, and return (mode document,
    context, records), records a lazy iterator of the PointRecord of each
    point in enumeration order.  The checks run at the call, before the
    context is built; the points are built and evaluated as records are
    drawn."""
    if not 3 <= n <= MAX_VERIFY_N:
        raise ValueError(f"need 3 <= n <= {MAX_VERIFY_N}, got {n}")
    if mode == "random" and count is not None and count < 1:
        raise ValueError(f"random sweep needs a count >= 1, got {count}")
    budget = _resolve_budget(budget)
    nprec = precision if precision is not None else default_precision(n, d)
    # Every limit is checked before any work: the context's parameters, the
    # capacity at 2N, where a point whose polygon is not certified at N
    # retries (the first retry makes that context), and the point budget.
    _check_params(p, d, nprec)
    _check_capacity(p, d, 2 * nprec)
    _check_budget(n, p, d, mode, count, seed, budget)
    ctx = make_context(p, d, nprec)
    mode_doc = {"kind": mode, "budget": budget, "precision": nprec}
    if mode == "random":
        mode_doc.update(count=count, seed=seed)
    points = _enumerate_points(n, p ** d, mode, count, seed)
    return mode_doc, ctx, _records(ctx, n, points)


def _certifying_precision(n, d):
    """N* = d n + 1, the least precision that certifies the polygon of
    every point of a sweep at rank 2n over W(F_{p^d}) (see _records)."""
    return d * n + 1


def _records(ctx, n, points):
    """The PointRecord of each parameter vector drawn from the iterator
    points, in order.  The points are taken CHUNK at a time and each
    chunk's polygons are read as lanes (_chunk_polygons), with one
    NewtonPolygon per distinct hull (fcrystal._lane_polygons); no point
    or display is built.  Every point reads its cycles off one
    _CycleTable at N.

    Every point has val det A = n: A is p times a unit on the n columns
    F u_k (k >= 2, u_0 included) and F v_1, and with those columns
    divided by p it is a signed permutation up to unitriangular terms
    mod p, whatever the parameters.  A lane's certificate term
    (_linalg.lane_slope_pairs) is sy val h_0, and h_0 = det M for the
    lane matrix M = X sigma(Y) sigma^2(X) ... of fcrystal._graded_length(d)
    factors, each of val det X + val det Y = n per pair: d n at odd d,
    sy = 1, and 2 (d/2) n at even d, sy = 2.  So the term is d n, and
    every precision from N* = d n + 1 (_certifying_precision) up
    certifies the same, true polygon.

    At d <= 2 the lanes read their polygons off residues
    (_chunk_polygons), with no precision to choose.  At d >= 3 they run
    at N* in the context ctx.at_precision(N*) when N exceeds it, and at
    N otherwise; a lane not certified at N* all the same is read again at
    N, so its retry at 2N, failure and their texts are those of a sweep
    at N.  The records, their ctx and the report name N throughout."""
    table = _CycleTable(ctx, n)
    nstar = _certifying_precision(n, ctx.d)
    low = (ctx.at_precision(nstar)
           if ctx.N > nstar and _graded_length(ctx.d) > 2 else ctx)
    while chunk := list(itertools.islice(points, CHUNK)):
        polygons = _chunk_polygons(low, n, chunk)
        if low is not ctx and None in polygons:
            again = [i for i, polygon in enumerate(polygons)
                     if polygon is None]
            for i, polygon in zip(again, _chunk_polygons(
                    ctx, n, [chunk[i] for i in again])):
                polygons[i] = polygon
        for args in zip(chunk, polygons):
            yield evaluate_point(table, *args)


def _chunk_polygons(ctx, n, rows):
    """The polygon at ctx of the point with each parameter code tuple of
    rows, None where it is not certified at ctx.N.  When the lane matrix
    has two factors (d <= 2), each lane's polygon is read off the unit
    parts of its charpoly's coefficients mod p, in closed form at N = 1
    (displayzoo._template_charpoly, _linalg.unit_slope_pairs): no lift,
    no p-adic lane and no Berkowitz run, and the certificate term is d n
    at every point.  Otherwise the template's factors are multiplied out
    and Berkowitz runs on their product."""
    d = ctx.d
    if _graded_length(d) == 2:
        units = _template_charpoly(ctx.at_precision(1), n, rows)[1]
        lanes = unit_slope_pairs(units, d, _graded_scale(d))
    else:
        lanes = _graded_lane_pairs(*_template_lanes(ctx, n, rows))
    return _lane_polygons(lanes, ctx.N)


def _template_graph(ctx, n):
    """(labels, successor lists, tags) of the slope graph of the
    deformation template at ctx, the graph of its display at a point
    whose parameters are all nonzero.  An entry f [s_k] is f times a unit
    there, so its edge has the tag 2 << k, the bit of parameter position
    k; a constant entry's edge has tag 0.  Every entry is +-1 or +-p times
    a unit, so an edge's weight is 0 or 1, read with no ring operation:
    off the integer f of f [s_k], whose edge vanishes at N = 1 when f is
    +-p, and off the template's raw constants, of which those that vanish
    are left out and the rest are +-1 or +-p.  tags is parallel to the
    successor lists."""
    labels, slots, _ = _deformation_template(ctx, n)
    units = _coefficients(ctx)[:2]
    succ, tags = [], []
    for col in slots:
        row, trow = [], []
        for i, f, k in col:
            w = 0 if f in ((1, -1) if k is not None else units) else 1
            if w < ctx.N:
                row.append((i, w))
                trow.append(0 if k is None else 2 << k)
        succ.append(row)
        tags.append(trow)
    return labels, succ, tags


def _zero_bits(ints):
    """The tag bits (see _template_graph) of a point's zero parameters."""
    return sum([2 << k for k, v in enumerate(ints) if not v])


class _Cycle(NamedTuple):
    """A cycle through u_1 of the template's graph, as the cycle table
    holds it: weight, length, the tag bits of its edges (mask) and its
    slope weight / length."""
    weight: int
    length: int
    mask: int
    slope: Fraction


def _least_cycles(n, N, base):
    """(weight, length, mask) of each cycle through u_1 of the template's
    graph at precision N that _CycleTable.least can return, in slope
    order, ties in the order of cycles_through.  A mask holds the bits of
    the cycle's parameters and EXTRA when it uses an extra black edge, a
    parameter edge of weight 1 or a constant edge of weight at least
    base, the sweep's precision (N itself, or N / 2 in the table at 2N).

    Write m = n for odd n and m = n - 1 for even n, h = (m - 1)/2, and
    {x, ...} for a mask.  The cycles are, for N >= 2:

        (i, 2i + 2, {s_(2(h - i))})            for 0 <= i < h,
        (h, 2h + 2, {s_0, EXTRA})              at even n,
        (h + 1, 2h + 2, {s_m, EXTRA}),
        (h + 1 + k, 2(h + 1 + k), {s_(m - 2k)}) for 1 <= k < h,
        (m, 2m, {});

    n in all, with slopes 1/2 - 1/(2(i + 1)), then h/(2h + 2), then 1/2.
    At N = 1 only the first is left, and in the table at 2N of a sweep at
    N = 1 every cycle of positive weight also holds EXTRA.

    Proof.  From deformation_display, every entry is +-1 or +-p times a
    unit at a point whose parameters are nonzero, so every edge has
    weight 0 or 1.  The edges are u_1 -> v_m (weight 0); u_k -> v_(k-1)
    (1) for k >= 3; v_2 -> u_1 (0); v_k -> u_(k-1) (0) and v_k -> u_1
    (0, s_(k-1)) for k >= 3; v_1 -> u_m (1) and v_1 -> u_1 (1, s_m);
    u_2 -> v_1 (1) and u_2 -> v_j (1, s_j) for 2 <= j <= m; and at even
    n u_2 -> v_0 (1, s_0), u_0 -> v_0 (1), v_0 -> u_0 (0) and
    v_0 -> u_1 (0, s_0).  Successors are tried in row order, u_1 first.

    A cycle through u_1 starts u_1 -> v_m, and runs down the odd chain
    v_m -> u_(m-1) -> v_(m-2) -> ... -> v_3 -> u_2, each u_k having the
    one edge to v_(k-1).  It may leave the chain at v_(m-2i) to u_1
    through s_(m-2i-1) = s_(2(h-i)): the first h cycles.  At u_2 it has
    weight h - 1 over 2h edges, and v_3, v_5, ..., v_m are on its path.
    From u_2 it goes:
      * to v_1 and back to u_1 through s_m, weight 1 and a parameter
        edge: (h + 1, 2h + 2, {s_m, EXTRA});
      * to v_1, then u_m, and down the even chain u_m -> v_(m-1) ->
        u_(m-2) -> ... -> v_2 -> u_1, leaving it at v_j (even j >= 4)
        through s_(j-1), or at v_2 with no parameter: with
        j = m + 1 - 2k, weight h + 1 + k and length 2(h + 1 + k), mask
        {s_(m-2k)} for k < h and {} at k = h.  These come after the one
        before, as v_1 tries u_1 before u_m, and by rising k, as each v_j
        tries u_1 first;
      * at even n, to v_0 and back to u_1 through s_0 (u_0 leads only
        back to v_0): (h, 2h + 2, {s_0, EXTRA});
      * to v_j through s_j, for even j, then down the even chain from v_j
        and out at some v_j' with j' <= j: with t steps u -> v after v_j,
        weight h + t, length 2(h + 1 + t) and s_j in its mask.
    That is every cycle.  A cycle of the last kind has slope at least
    h/(2h + 2), above the slope i/(2i + 2), i = h - j/2 < h, of the
    first-kind cycle with mask {s_j}: that cycle comes first in slope
    order and avoids every skip the other avoids, so least never returns
    the other.  Each of the remaining n cycles holds a parameter that no
    other holds, except the last, (m, 2m, {}), whose mask is empty: no
    mask holds another's, so each of them is least for some skip, and the
    list above is their slope order.  The largest slope is 1/2, so the
    table's largest is the same as over every cycle through u_1.

    At N = 1 the edges of weight 1 vanish (their f is +-p), and every
    cycle but the first has positive weight.  In the table at 2N an edge
    of weight 1 is extra when it is a parameter edge, or a constant edge
    and 1 >= base: at base 1 every edge of weight 1 is extra, so EXTRA
    joins the mask of every cycle of positive weight, and at base >= 2 no
    mask changes.
    Neither change makes one mask hold another's, and a cycle of the last
    kind keeps s_j and EXTRA, so the same cycles are dropped."""
    m = n if n % 2 else n - 1
    h = (m - 1) // 2
    bit = {j: 2 << t for t, j in enumerate(_parameter_indices(n))}
    out = [(i, 2 * i + 2, bit[2 * (h - i)]) for i in range(h)]
    if N == 1:
        return out[:1]
    if m < n:
        out.append((h, 2 * h + 2, bit[0] | EXTRA))
    out.append((h + 1, 2 * h + 2, bit[m] | EXTRA))
    out += [(h + 1 + k, 2 * (h + 1 + k), bit[m - 2 * k])
            for k in range(1, h)]
    out.append((m, 2 * m, 0))
    if base == 1:
        out = [(w, l, mask | EXTRA if w else mask) for w, l, mask in out]
    return out


class _CycleTable:
    """The slope-graph stage of a sweep at one precision, shared by its
    points: the template's cycles through u_1 that least can return, in
    closed form (_least_cycles), as (mask, _Cycle) pairs in slope order
    (by_slope), and whether one settle decides the certificate for every
    point (settled).  Each cycle's slope is built once, with the table.
    The least cycle and its slope are memoized per skip mask
    (least_slope), so points with one zero pattern scan by_slope once.

    A cycle's mask holds the bits of the parameters its edges use, and
    EXTRA when it uses an extra black edge: an edge of positive weight
    that is a parameter edge or has weight at least N, the sweep's
    precision.  A constant entry is nonzero mod p^N exactly when its
    weight is below N, so at N every constant edge is a base edge, and the
    table at 2N (doubled, for retried points) passes N to mark the
    constant edges that vanish there.  The template's graph itself
    (labels, succ, tags; graph) serves the settle, Karp where the settle
    fails, and the lemma entry, which names a point's first violating
    cycle in the order of cycles_through."""

    def __init__(self, ctx, n, N=None):
        labels, succ, tags = _template_graph(ctx, n)
        self.ctx, self.n = ctx, n
        self.labels, self.succ, self.tags = labels, succ, tags
        self.by_slope = [(mask, _Cycle(w, l, mask, Fraction(w, l)))
                         for w, l, mask in _least_cycles(
                             n, ctx.N, ctx.N if N is None else N)]
        self._least = {}
        # the template's graph without the edges leaving u_1
        off = list(succ)
        off[labels.index(_U1)] = []
        top = self.by_slope[-1][1]
        self.settled = settle_potentials(
            SlopeGraph._from_successors(labels, off),
            top.weight, top.length) is not None

    @functools.cached_property
    def doubled(self):
        return _CycleTable(self.ctx.at_precision(2 * self.ctx.N), self.n,
                           self.ctx.N)

    def least(self, skip):
        """The first cycle of least slope whose mask avoids skip, or None."""
        return self.least_slope(skip)[0]

    def least_slope(self, skip):
        """(least(skip), its slope), or (None, None), memoized per skip."""
        got = self._least.get(skip)
        if got is None:
            c = next((c for mask, c in self.by_slope if not mask & skip),
                     None)
            got = self._least[skip] = (c, None if c is None else c.slope)
        return got

    def graph(self, zero):
        """The slope graph of a point whose zero parameters have the bits
        zero."""
        return SlopeGraph._from_successors(self.labels, [
            [e for e, t in zip(row, trow) if not t & zero]
            for row, trow in zip(self.succ, self.tags)])


def _point_doc(n, ints):
    """A point's parameters as report entries name them, {"s<i>": value}."""
    return {f"s{i}": v for i, v in zip(_parameter_indices(n), ints)}


def evaluate_point(table, ints, polygon):
    """The PointRecord of the point with the parameter codes ints, given
    the sweep's _CycleTable at its context, of precision N, and the
    point's polygon there, which _records may have read off residues or
    at the lower certifying precision N*: the same polygon.  polygon is
    None when the point is not certified at N, and then the point retries
    at 2N, the one place a sweep builds the point and its display.

    Checks that the least Newton slope exceeds no cycle slope through u_1
    (lemma), and records without failing where it differs from the least
    cycle slope (remark), where that is not the global minimum cycle mean
    (Karp), and where the extra black edges change it.  The point's cycles
    are the table's cycles whose masks avoid its zero parameters."""
    n = table.n
    retried = polygon is None
    if retried:
        table = table.doubled
        point = DeformationPoint.from_ints(table.ctx, n, ints)
        try:
            polygon = newton_slopes(deformation_display(table.ctx, point))
        except PrecisionError as exc:
            return PointRecord(ints, table.ctx, None, True, None, (
                ("precision_failures", {"point": _point_doc(n, ints),
                                        "error": str(exc)}),))
    zero = _zero_bits(ints)
    full, full_slope = table.least_slope(zero)
    if full is None:
        return PointRecord(ints, table.ctx, polygon, retried, None, (
            ("lemma_violations", {"point": _point_doc(n, ints),
                                  "error": "no cycles through u1"}),))
    entries = []
    min_newton = polygon.min_slope()
    num, den = min_newton.numerator, min_newton.denominator
    if num * full.length > full.weight * den:
        # the point's own cycles, in the order of the template's
        bad = next(c for c in cycles_through(table.graph(zero), _U1)
                   if num * c.length > c.weight * den)
        entries.append(("lemma_violations", {
            "point": _point_doc(n, ints),
            "min_newton": _frac_str(min_newton),
            "cycle": bad.to_json(),
        }))
    if num * full.length != full.weight * den:
        entries.append(("remark_violations", {
            "point": _point_doc(n, ints),
            "min_newton": _frac_str(min_newton),
            "min_cycle": _frac_str(full_slope),
        }))
    if not table.settled:
        # the point's graph holds the cycle full, so Karp finds a mean
        karp = karp_min_cycle_mean(table.graph(zero))
        if karp != full_slope:
            entries.append(("karp_disagreements", {
                "point": _point_doc(n, ints),
                "min_cycle_u1": _frac_str(full_slope),
                "karp_global": _frac_str(karp),
            }))
    # the kept cycles are the cycles of the graph without the extra black
    # edges
    reduced = table.least(zero | EXTRA)
    if reduced is None:
        raise RuntimeError(
            f"no cycles through {_U1}: anomalous graph for a valid display")
    if reduced.weight * full.length != full.weight * reduced.length:
        entries.append(("extra_edge_effects", {
            "point": _point_doc(n, ints),
            "full": _frac_str(full_slope),
            "without_extra_black_edges": _frac_str(reduced.slope),
        }))
    return PointRecord(ints, table.ctx, polygon, retried, full_slope,
                       tuple(entries))


def reduce_records(n, mode_doc, ctx, records):
    """The StrataReport of a sweep's records, read once in order and not
    held.  Each report list is the records' entries for it, in point order;
    the stratum counts and the agreement rate are read off the agreement
    matrix (predicted stratum -> classified stratum -> points)."""
    lists = {name: [] for name in _REPORT_LISTS}
    indices = _parameter_indices(n)
    # id(polygon) -> (polygon, label): lanes with equal hulls share one
    # polygon, classified once; holding it keeps its id from being reused
    labels = {}
    agreement = defaultdict(Counter)
    total = retries = 0
    s0_map = {} if n % 2 == 0 else None
    for rec in records:
        total += 1
        retries += rec.retried
        for name, entry in rec.entries:
            lists[name].append(entry)
        if rec.polygon is None:
            continue
        got = labels.get(id(rec.polygon))
        if got is None:
            if len(labels) >= CHUNK:
                labels.clear()
            got = labels[id(rec.polygon)] = (rec.polygon,
                                             classify(n, rec.polygon))
        label = got[1]
        agreement[_predicted(indices, rec.ints)][label] += 1
        if s0_map is not None:
            s0_map.setdefault(rec.ints[1:], set()).add(label)

    counts = sum(agreement.values(), Counter())
    matches = sum(row[predicted] for predicted, row in agreement.items())
    evaluated = counts.total()

    s0_effect = None
    if s0_map is not None:
        rest_indices = tuple(range(2, n))
        changed = sorted(
            sorted({f"s{i}": v for i, v in zip(rest_indices, key)}.items())
            for key, labels in s0_map.items() if len(labels) > 1)
        s0_effect = {
            "changes_stratum": bool(changed),
            "patterns_checked": len(s0_map),
            "changed_patterns": [dict(c) for c in changed],
        }

    return StrataReport(
        n=n, p=ctx.p, d=ctx.d, mode=mode_doc, points=total,
        agreement={k: dict(sorted(v.items()))
                   for k, v in sorted(agreement.items())},
        agreement_rate=Fraction(matches, evaluated) if evaluated
        else Fraction(0),
        counts_by_stratum=dict(sorted(counts.items())),
        precision_retries=retries,
        s0_effect=s0_effect,
        context=ctx.to_json(),
        **lists,
    )


def verify_local_strata(n, p, d, mode="exhaustive", count=None, seed=None,
                        budget=None, precision=None):
    """Sweep deformation points and compare three slope computations.

    For every point: the characteristic-polynomial Newton polygon
    (certified at N, or else at 2N), the catalog classification,
    the vanishing-pattern prediction, and the cycle slopes through u_1.
    Checks that the minimal Newton slope never exceeds any cycle slope, and
    reports (without failing) whenever the min-cycle-slope equality or the
    Karp cross-check disagrees.  Deterministic for a fixed seed.  The
    report is reduce_records of sweep's records.
    """
    return reduce_records(n, *sweep(n, p, d, mode, count, seed, budget,
                                    precision))
