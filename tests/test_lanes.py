"""Lanes: the slope kernels run once for a batch of matrices.

Each lane of twisted_product, _berkowitz, poly_mul, neg and frob on
_LaneOps must be what the base ops give for that lane's own matrix (lane
scalars packed at d >= 2 on the way in and unpacked on the way out), also
at the largest number of products the packed slots are sized for;
lane_slope_pairs must read each lane's certified polygon (or its failure)
as the oracles do on the lane's own matrix, a batch must read each
display's polygon, graded or not, and a sweep's polygons, read in lanes,
must equal newton_slopes of freshly built displays.  A sweep fills its
lanes from the deformation template without building displays: the lane
blocks and each lane's (pairs, term) must be those newton_slopes_batch
reads off fresh displays, lanes with equal block hulls must share one
polygon, and a display is built only for a point retried at 2N.
"""
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from gustrata import (DeformationPoint, DieudonneDisplay, NewtonPolygon,
                      PrecisionError, _linalg, default_precision,
                      deformation_display, make_context, module_M,
                      newton_slopes, parse_module_spec, strata)
from gustrata._linalg import (_berkowitz, _blocks, _LaneOps, _restrict,
                              lane_slope_pairs, lower_hull, ops_for,
                              poly_mul, sparse_transpose, twisted_factors,
                              twisted_product)
from gustrata.displayzoo import _deformation_template, _template_lanes
from gustrata.fcrystal import (U, _basis_halves, _graded_lane_pairs,
                               _graded_length, _lane_columns, _lane_pairs,
                               _lane_polygons, newton_slopes_batch)
from gustrata.strata import CHUNK, _enumerate_points

from _oracles import (blowup_slope_pairs, certified_slope_pairs_oracle,
                      expansion_charpoly, scalar_valuation)
from _sweeps import closed_form_charpoly, report_and_records


def raw_entry(rng, ops, d):
    """A random nonzero raw scalar of random valuation below 3."""
    p, q = ops.p, ops.q
    while True:
        k = p ** rng.randrange(3)
        raw = (rng.randrange(q) * k % q if d == 1
               else tuple(rng.randrange(q) * k % q for _ in range(d)))
        if raw != ops.zero:
            return raw


def lane_matrices(rng, ops, d, r, width, density=0.45, vanish=0.35):
    """(lane columns, per-lane columns) of width random r x r matrices on
    one union support: each entry of the support vanishes in a lane with
    probability vanish, and in every lane never (it is dropped)."""
    zero = ops.zero
    lane_cols = [[] for _ in range(r)]
    for j in range(r):
        for i in range(r):
            if rng.random() >= density:
                continue
            e = tuple(zero if rng.random() < vanish else raw_entry(rng, ops, d)
                      for _ in range(width))
            if any(x != zero for x in e):
                lane_cols[j].append((i, e))
    return lane_cols, [lane_of(lane_cols, lane, zero) for lane in range(width)]


def lane_of(sparse, lane, zero):
    """Sparse rows (or columns) of one lane of a lane matrix."""
    return [[(j, e[lane]) for j, e in line if e[lane] != zero]
            for line in sparse]


def edge_lanes(rng, ops, d, width):
    """width raw scalars, each the zero with probability 0.2, else with
    coordinates drawn from 0, q - 1 and random ones (q - 1 at d = 1)."""
    q = ops.q
    return [ops.zero if rng.random() < 0.2 else
            (q - 1 if d == 1 else tuple(
                rng.choice((0, q - 1, rng.randrange(q))) for _ in range(d)))
            for _ in range(width)]


def as_dicts(sparse):
    return [dict(line) for line in sparse]


def unpacked(lops, lines):
    """Sparse lines of lane values with each lane's raw scalar."""
    return [[(j, tuple(map(lops.unpack, e))) for j, e in line]
            for line in lines]


def packed_values(lops, values):
    return [tuple(map(lops.pack, e)) for e in values]


def unpacked_values(lops, values):
    return [tuple(map(lops.unpack, e)) for e in values]


# the cases at p = 3, d <= 3 and width <= 5 keep their ids "d-width"
CASES = [pytest.param(p, d, width, id=f"{d}-{width}" if p == 3 and d < 4
                      and width < 64 else f"{p}-{d}-{width}")
         for p in (2, 3, 1000003) for d in (1, 2, 3, 4)
         for width in (1, 5, 64)]


@pytest.mark.parametrize("p,d,width", CASES)
class TestKernelParity:
    """Each lane of the kernels on packed lanes is what the base ops give
    on that lane's own matrix; lane values are packed on the way in and
    unpacked on the way out."""

    @staticmethod
    def setup(p, d, width):
        return (ops_for(make_context(p, d, 7)),
                random.Random(f"{p} {d} {width}"))

    def test_twisted_product(self, p, d, width):
        ops, rng = self.setup(p, d, width)
        for r in (1, 3, 5, 7):
            lops = _LaneOps(ops, width, r)
            x, xs = lane_matrices(rng, ops, d, r, width)
            y, ys = lane_matrices(rng, ops, d, r, width)
            for length in (1, 2, 3, 4):
                got = unpacked(lops, twisted_product(lops, twisted_factors(
                    lops, lops.packed(x), length, lops.packed(y))))
                for lane in range(width):
                    want = twisted_product(ops, twisted_factors(
                        ops, xs[lane], length, ys[lane]))
                    assert as_dicts(lane_of(got, lane, ops.zero)) == \
                        as_dicts(want)

    def test_berkowitz(self, p, d, width):
        ops, rng = self.setup(p, d, width)
        for r in (1, 2, 4, 6, 8):
            lops = _LaneOps(ops, width, r)
            for _ in range(3):
                cols, lanes = lane_matrices(rng, ops, d, r, width)
                got = unpacked_values(lops, _berkowitz(
                    lops, sparse_transpose(lops.packed(cols), r)))
                for lane in range(width):
                    want = _berkowitz(ops, sparse_transpose(lanes[lane], r))
                    assert [c[lane] for c in got] == want

    def test_poly_mul(self, p, d, width):
        ops, rng = self.setup(p, d, width)
        zero = ops.zero

        def lane_poly(size):
            return [tuple(zero if rng.random() < 0.4
                          else raw_entry(rng, ops, d) for _ in range(width))
                    for _ in range(size)]

        for la, lb in ((1, 1), (3, 2), (5, 4), (6, 6)):
            lops = _LaneOps(ops, width, max(la, lb))
            a, b = lane_poly(la), lane_poly(lb)
            for terms in (1, la + lb - 1, la + 1):
                got = unpacked_values(lops, poly_mul(
                    lops, packed_values(lops, a), packed_values(lops, b),
                    terms))
                for lane in range(width):
                    want = poly_mul(ops, [c[lane] for c in a],
                                    [c[lane] for c in b], terms)
                    assert [c[lane] for c in got] == want

    def test_neg_and_frob(self, p, d, width):
        """neg and every power of frob on lanes with zero coordinates,
        zero lanes and the coordinate q - 1."""
        ops, rng = self.setup(p, d, width)
        lops = _LaneOps(ops, width, 4)
        for _ in range(20):
            lanes = edge_lanes(rng, ops, d, width)
            value = tuple(map(lops.pack, lanes))
            assert tuple(map(lops.unpack, value)) == tuple(lanes)
            assert tuple(map(lops.unpack, lops.neg(value))) == tuple(
                map(ops.neg, lanes))
            for power in range(-1, 2 * d + 1):
                assert tuple(map(lops.unpack, lops.frob(value, power))) == \
                    tuple(ops.frob(x, power) for x in lanes)


def carrying_size(q, d):
    """The least number of products T at which slots sized for T - 1
    products carry: T products of d terms q - 1 sum to T d (q - 1)^2 in
    slot d - 1, and that reaches 2^B for B the bit length of the bound
    ((T - 1) d + d - 1) (q - 1)^2 of T - 1 products."""
    square = (q - 1) ** 2
    return next(t for t in itertools.count(1)
                if (t * d * square).bit_length()
                > ((t * d - 1) * square).bit_length())


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 1000003])
def test_worst_case_slots(p, d, width):
    """Dense columns whose every coordinate is q - 1, times a dense vector
    of the same, at the largest number of products the slot width is
    sized for (slot d - 1 of each sum reaches T d (q - 1)^2 before the
    folds), and each lane is still the base ops' product.  The number of
    products is chosen so that slots one product narrower would carry."""
    ops = ops_for(make_context(p, d, 7))
    full = (ops.q - 1,) * d
    size, rows = carrying_size(ops.q, d), 3
    lops = _LaneOps(ops, width, size)
    cols = [[(i, full) for i in range(rows)] for _ in range(size)]
    want = ops.smatvec(cols, dict.fromkeys(range(size), full))
    assert len(want) == rows
    got = lops.smatvec(lops.packed([[(i, (a,) * width) for i, a in col]
                                    for col in cols]),
                       dict.fromkeys(range(size), (lops.pack(full),) * width))
    assert {i: tuple(map(lops.unpack, e)) for i, e in got.items()} == {
        i: (a,) * width for i, a in want.items()}


def oracle_polygon(ops, srows, twist, scale):
    """The polygon of a matrix given by its sparse raw rows, by the oracles
    alone, or None when it is not certified: the cofactor expansion of
    det(xI - M), each point (i, v) moved to (sx * i, sy * v), the degrees a
    stretch leaves out reading sy * N, and the gift-wrapping hull."""
    ctx, r = ops.ctx, len(srows)
    rows = [[ctx.zero()] * r for _ in range(r)]
    for i, srow in enumerate(srows):
        for j, a in srow:
            rows[i][j] = ops.wrap(a)
    (sx, sy), cap = scale, ctx.N
    vals = [sy * cap] * (sx * r + 1)
    for i, c in enumerate(expansion_charpoly(rows, ctx.zero(), ctx.one())):
        vals[sx * i] = sy * scalar_valuation(c, cap)
    try:
        return NewtonPolygon(certified_slope_pairs_oracle(vals, cap, twist))
    except PrecisionError:
        return None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mixed_certified_lanes(d):
    """Lanes whose matrices are scaled by p (which raises val det) fail the
    certificate next to lanes that pass; each lane reads the oracle
    polygon of its own matrix, and some lane's own blocks are finer than
    the blocks of the union support."""
    ctx = make_context(3, d, 6)
    ops = ops_for(ctx)
    rng = random.Random(300 + d)
    width = 6
    lops = _LaneOps(ops, width, 6)
    seen = set()
    finer = False
    for r in (3, 4, 5, 6):
        for twist, scale in ((1, (1, 1)), (d, (2, 1)), (d, (2, 2))):
            for _ in range(4):
                cols, lanes = lane_matrices(rng, ops, d, r, width,
                                            density=0.6)
                # scale the odd lanes by p
                cols = [[(i, tuple(ops.scale(ops.p, x) if t % 2 else x
                                   for t, x in enumerate(e)))
                         for i, e in col] for col in cols]
                cols = [[(i, e) for i, e in col
                         if any(x != ops.zero for x in e)] for col in cols]
                srows = sparse_transpose(cols, r)
                got = lane_slope_pairs(lops, lops.packed(srows), twist,
                                       scale)
                union_blocks = len(_blocks(srows))
                for lane in range(width):
                    own = lane_of(srows, lane, ops.zero)
                    finer |= len(_blocks(own)) > union_blocks
                    want = oracle_polygon(ops, own, twist, scale)
                    pairs, term = got[lane]
                    if term >= ops.cap:
                        assert want is None, (r, lane)
                        seen.add("failed")
                    else:
                        assert NewtonPolygon(pairs) == want, (r, lane)
                        seen.add("certified")
    assert seen == {"failed", "certified"}
    assert finer


def with_same_family_entry(display, source, target):
    """The display with 1 added at F source -> target, two labels of one
    family: F is then not graded."""
    basis = display.basis
    i, j = basis.index(target), basis.index(source)
    columns = [list(col) for col in zip(*display.frobenius)]
    columns[j][i] = columns[j][i] + display.ctx.one()
    return DieudonneDisplay(display.ctx, basis, columns, display.pairing)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mixed_batch_of_graded_and_ungraded_lanes(d):
    """A batch holding displays whose F is not graded reads every lane
    from the full d-fold product: each lane is the Z_p-linear blow-up
    oracle's polygon, slopes counted d times there, and newton_slopes of
    a fresh copy of its display alone."""
    ctx = make_context(3, d, 12)
    m3 = module_M(ctx, 3)
    point = deformation_display(
        ctx, DeformationPoint.from_ints(ctx, 3, (1, 2)))
    displays = [m3, with_same_family_entry(m3, U(1), U(1)), point,
                with_same_family_entry(point, U(2), U(3))]
    polygons = newton_slopes_batch(displays)
    for display, polygon in zip(displays, polygons):
        assert NewtonPolygon(blowup_slope_pairs(display)) == NewtonPolygon(
            [(s, m * d) for s, m in polygon.slopes])
        fresh = DieudonneDisplay._from_sparse(
            ctx, display.basis, display.sparse_frobenius,
            display.sparse_pairing)
        assert newton_slopes(fresh) == polygon
    # each entry inside a family moves the polygon
    assert polygons[0] != polygons[1] and polygons[2] != polygons[3]


def test_batch_refuses_mixed_contexts_and_bases():
    spec = [parse_module_spec(t) for t in ("def(5; s2=1)", "def(5; s4=1)")]
    low, high = make_context(3, 1, 3), make_context(3, 1, 40)
    alone = spec[1].build(high)
    assert newton_slopes(alone) == NewtonPolygon(
        [(0, 2), (Fraction(1, 2), 6), (1, 2)])
    with pytest.raises(ValueError, match="one context and one basis"):
        newton_slopes_batch([spec[0].build(low), spec[1].build(high)])
    other = parse_module_spec("M(2)+N").build(high)
    m3 = module_M(high, 3)
    assert other.basis != m3.basis and other.rank == m3.rank
    with pytest.raises(ValueError, match="one context and one basis"):
        newton_slopes_batch([m3, other])


def test_empty_batch_has_no_polygons():
    assert newton_slopes_batch([]) == []


def test_batch_caches_polygons_and_marks_uncertified():
    """The batch stores each certified polygon in its display's cache, equal
    to newton_slopes of a fresh display, and returns None where the
    certificate fails (precision 5 is too low for every point at n = 5,
    p = 3), caching nothing there."""
    for nprec, certified in ((28, True), (5, False)):
        ctx = make_context(3, 1, nprec)
        rng = random.Random(nprec)
        points = [DeformationPoint.from_ints(
            ctx, 5, tuple(rng.randrange(3) for _ in range(4)))
            for _ in range(7)]
        displays = [deformation_display(ctx, pt) for pt in points]
        polygons = newton_slopes_batch(displays)
        for point, display, polygon in zip(points, displays, polygons):
            if certified:
                assert newton_slopes(display) is polygon
                assert newton_slopes(deformation_display(ctx, point)) == \
                    polygon
            else:
                assert polygon is None
                assert "slopes" not in display._cache
                with pytest.raises(PrecisionError):
                    newton_slopes(display)


SWEEPS = [(n, 3, 1) for n in (4, 5, 6, 7)] + [(4, 3, 2), (3, 3, 3)]


@pytest.mark.parametrize("n,p,d", SWEEPS)
def test_sweep_polygons_equal_fresh_displays(n, p, d):
    rep, records = report_and_records(n, p, d)
    assert rep.points == (p ** d) ** (n - 1) == len(records)
    for rec in records:
        fresh = deformation_display(rec.ctx, rec.point)
        assert newton_slopes(fresh) == rec.polygon, rec.ints


def check_template_chunk(ctx, n, chunk):
    """The template's lanes for the parameter codes chunk are the lanes
    of the fresh displays at those points: the same lane ops, twisted
    factors equal to twisted_factors of the blocks X and Y
    lops.packed(_lane_columns(displays)), and each lane's (pairs, term)
    and polygon what newton_slopes_batch reads.  Returns the number of
    entries the blocks hold."""
    displays = [deformation_display(
        ctx, DeformationPoint.from_ints(ctx, n, ints)) for ints in chunk]
    lops, factors = _template_lanes(ctx, n, chunk)
    assert (lops.width, lops.d) == (len(chunk), ctx.d)
    x, y = [lops.packed(_lane_columns(displays, idx, pos))
            for idx, pos in _basis_halves(displays[0].basis)]
    assert factors == twisted_factors(lops, x, _graded_length(ctx.d), y)
    lanes = _graded_lane_pairs(lops, factors)
    assert lanes == _lane_pairs(displays)
    assert _lane_polygons(lanes, ctx.N) == newton_slopes_batch(displays)
    return sum(len(col) for col in x + y)


TEMPLATE_SWEEPS = ([(n, p, 1) for n in range(3, 8) for p in (2, 3)]
                   + [(4, 3, 2), (3, 3, 3)])


@pytest.mark.parametrize("n,p,d", TEMPLATE_SWEEPS)
def test_template_lanes_are_the_displays_lanes(n, p, d):
    """Every chunk of an exhaustive sweep, at the sweep's precision and
    at precision 1, where the template's p entries vanish in every lane
    and are left out.  The first chunk of each exhaustive sweep holds the
    zero point, whose blocks hold only the constant entries."""
    for nprec in (default_precision(n, d), 1):
        ctx = make_context(p, d, nprec)
        points = list(_enumerate_points(n, p ** d, "exhaustive", None, None))
        sizes = [check_template_chunk(ctx, n, points[k:k + CHUNK])
                 for k in range(0, len(points), CHUNK)]
        assert check_template_chunk(ctx, n, [points[0]]) < min(sizes)
        if nprec == 1:
            # every entry of Y but F u_1 = -v_m is a p entry
            y = _template_lanes(ctx, n, points)[1][1]
            assert [len(col) for col in y] == [1] + [0] * (n - 1)


@pytest.mark.parametrize("n,p,d", [(8, 3, 1), (7, 2, 1), (5, 3, 2)])
def test_template_lanes_drop_a_parameter_zero_in_every_lane(n, p, d):
    """Random chunks in which one parameter is 0 in every lane: its
    entries vanish in every lane and are left out, as the displays' lanes
    leave them out, and the blocks hold fewer entries than with it."""
    ctx = make_context(p, d, default_precision(n, d))
    rng = random.Random(f"{n} {p} {d}")
    q = p ** d
    for k in range(n - 1):
        chunk = [tuple(0 if t == k else rng.randrange(1, q)
                       for t in range(n - 1)) for _ in range(9)]
        with_k = [ints[:k] + (1,) + ints[k + 1:] for ints in chunk]
        assert check_template_chunk(ctx, n, chunk) < \
            check_template_chunk(ctx, n, with_k)


@pytest.mark.parametrize("n,p,d", [(3, 2, 2), (5, 3, 2), (3, 2, 3),
                                   (4, 3, 3), (3, 2, 4), (4, 3, 4)])
def test_template_factors_are_the_twisted_display_blocks(n, p, d):
    """Factor k of a sweep's lane product, read straight off the lifts of
    s^(p^k), is sigma^k of the displays' block (X for even k, Y for odd
    k), lane by lane: each lane unpacks to the base ops' frob of its own
    display's entry.  Every constant slot of the template is an integer,
    which sigma fixes.  At the default precision and at precision 1."""
    rng = random.Random(f"sigma {n} {p} {d}")
    for nprec in (default_precision(n, d), 1):
        ctx = make_context(p, d, nprec)
        ops = ops_for(ctx)
        chunk = [tuple(rng.randrange(p ** d) for _ in range(n - 1))
                 for _ in range(7)] + [(0,) * (n - 1)]
        displays = [deformation_display(
            ctx, DeformationPoint.from_ints(ctx, n, ints)) for ints in chunk]
        halves = _basis_halves(displays[0].basis)
        lops, factors = _template_lanes(ctx, n, chunk)
        assert len(factors) == _graded_length(d) == d << d % 2
        for k, factor in enumerate(factors):
            idx, pos = halves[k % 2]
            block = lops.packed(_lane_columns(displays, idx, pos))
            assert factor == [[(i, lops.frob(e, k)) for i, e in col]
                              for col in block], (nprec, k)
            for lane, display in enumerate(displays):
                want = [sorted((pos[i], ops.frob(a, k))
                               for i, a in display.sparse_frobenius[j])
                        for j in idx]
                assert [[(i, lops.unpack(e[lane])) for i, e in col
                         if e[lane]] for col in factor] == want
        constants = [f for col in _deformation_template(ctx, n)[1]
                     for _, f, pos in col if pos is None]
        assert constants and all(ops.frob(f, t) == f
                                 for f in constants for t in range(d))


def lane_products(lops, run):
    """The products lops.smatvec forms while run() runs: one per pair of
    a vector entry and a matrix entry of its column, each a product in
    every lane."""
    count = [0]
    smatvec = lops.smatvec

    def counting(cols, w):
        count[0] += sum(len(cols[j]) for j in w)
        return smatvec(cols, w)

    lops.smatvec = counting
    try:
        run()
    finally:
        del lops.smatvec
    return count[0]


def berkowitz_products(lops, srows, twist, scale):
    """(products lane_slope_pairs forms on the lane matrix with the given
    sparse rows, products Berkowitz forms on its blocks as rows)."""
    return (lane_products(lops, lambda: lane_slope_pairs(
        lops, srows, twist, scale)),
        lane_products(lops, lambda: [_berkowitz(lops, _restrict(srows, b))
                                     for b in _blocks(srows)]))


def test_berkowitz_on_transposed_blocks_forms_fewer_products():
    """On the template's lane matrices, two lanes each, the
    products of lane_slope_pairs drop against Berkowitz on the blocks'
    rows: at d <= 2, where it runs on the transposed blocks, in total and
    at each (p, d); at d = 3 it runs on the rows and forms as many (to
    n = 24 there, where the matrices of six factors cost the most)."""
    totals = []
    for p, d in [(2, 1), (3, 1), (3, 2), (2, 3)]:
        got = rows = 0
        for n in range(3, 41 if d <= 2 else 25):
            ctx = make_context(p, d, default_precision(n, d))
            rng = random.Random(f"berkowitz {p} {d} {n}")
            chunk = [tuple(rng.randrange(1, p ** d) for _ in range(n - 1)),
                     tuple(rng.randrange(p ** d) for _ in range(n - 1))]
            lops, factors = _template_lanes(ctx, n, chunk)
            pair = berkowitz_products(lops, twisted_product(lops, factors),
                                      d, (2, 2 - d % 2))
            got, rows = got + pair[0], rows + pair[1]
        assert got < rows if d <= 2 else got == rows, (p, d)
        totals.append((got, rows))
    assert sum(g for g, _ in totals) < sum(r for _, r in totals)


DIGEST_MODULES = [("N^1000", 3, 1, None), ("M(600)+N^600", 3, 1, None),
                  ("N^300", 3, 2, None), ("M(40)+N^100", 5, 3, None),
                  ("N^60", 3, 1, 3), ("M(9)+N^9", 3, 2, 2),
                  ("M(6)+N^6", 3, 2, None), ("N^6", 3, 1, 5),
                  ("ss(6)+ss(6)+N", 3, 2, None), ("M(5)", 3, 2, 1),
                  ("M(7)+M(3)+N^2", 5, 2, None), ("ss(8)+N", 7, 2, None),
                  ("N^5", 5, 3, None), ("M(14)", 5, 2, None)]


@pytest.mark.parametrize("spec,p,d,nprec", DIGEST_MODULES)
def test_no_module_matrix_of_the_digests_forms_more_products(
        spec, p, d, nprec, monkeypatch):
    """Every lane matrix newton_slopes reads for the modules of
    tools/cli_digests.py forms no more products in lane_slope_pairs than
    Berkowitz on its blocks as rows does."""
    module = parse_module_spec(spec)
    ctx = make_context(p, d, nprec or default_precision(module.half_rank,
                                                        d))
    seen = []
    original = _linalg.lane_slope_pairs

    def spy(lops, srows, twist, scale):
        seen.append(berkowitz_products(lops, srows, twist, scale))
        return original(lops, srows, twist, scale)

    monkeypatch.setattr(_linalg, "lane_slope_pairs", spy)
    try:
        newton_slopes(module.build(ctx))
    except PrecisionError:
        pass
    assert seen and all(got <= rows for got, rows in seen)


def lane_hulls(ctx, n, chunk):
    """Each lane's tuple of hulls, one per polynomial a sweep reads its
    polygon from: at d <= 2 the closed-form charpoly of its lane matrix,
    at d >= 3 the Berkowitz charpoly of each block of the template's
    twisted product."""
    if _graded_length(ctx.d) == 2:
        lops, coeffs = closed_form_charpoly(ctx, n, chunk)
        polys = [coeffs[::-1]]
    else:
        lops, factors = _template_lanes(ctx, n, chunk)
        srows = twisted_product(lops, factors)
        polys = [_berkowitz(lops, _restrict(srows, block))
                 for block in _blocks(srows)]
    ops = lops.base
    return [tuple(tuple(lower_hull(list(enumerate(
        [ops.val(lops.unpack(c[lane])) for c in reversed(poly)]))))
        for poly in polys)
        for lane in range(lops.width)]


@pytest.mark.parametrize("n,p,d,count", [(8, 3, 1, 3 * CHUNK),
                                         (7, 2, 1, CHUNK + 5),
                                         (5, 3, 2, CHUNK),
                                         (4, 2, 3, CHUNK)])
def test_lanes_with_equal_hulls_share_one_polygon(n, p, d, count):
    """Within a chunk of a random sweep, lanes share one NewtonPolygon
    object exactly when their tuples of hulls (see lane_hulls) are equal;
    distinct tuples give distinct objects, so a chunk makes one polygon
    per distinct tuple."""
    rep, records = report_and_records(n, p, d, mode="random", count=count,
                                      seed=27)
    assert rep.precision_retries == 0
    ctx = records[0].ctx
    shared = 0
    for k in range(0, count, CHUNK):
        chunk = records[k:k + CHUNK]
        hulls = lane_hulls(ctx, n, [rec.ints for rec in chunk])
        objects = {}
        for rec, hull in zip(chunk, hulls):
            assert objects.setdefault(hull, rec.polygon) is rec.polygon
        assert len({id(rec.polygon) for rec in chunk}) == len(objects)
        shared += len(chunk) - len(objects)
    assert shared > 0


@pytest.mark.parametrize("precision,retried", [(None, 0), (5, 81)])
def test_sweep_builds_a_display_only_for_a_retried_point(
        monkeypatch, precision, retried):
    """A spy on deformation_display counts one call per point retried at
    2N, none for a point certified at N; the records give the context at
    which each display is built when it is read."""
    calls = []

    def spy(ctx, point):
        calls.append((ctx.N, point.to_ints()))
        return deformation_display(ctx, point)

    monkeypatch.setattr(strata, "deformation_display", spy)
    rep, records = report_and_records(5, 3, 1, precision=precision)
    assert rep.precision_retries == retried == len(calls)
    assert calls == [(rec.ctx.N, rec.ints) for rec in records if rec.retried]
    assert all(rec.ctx.N == rep.mode["precision"] for rec in records
               if not rec.retried)
    del calls[:]
    assert records[-1].display == deformation_display(records[-1].ctx,
                                                      records[-1].point)
    assert len(calls) == 1


def test_random_sweep_across_chunk_edges():
    """A random sweep of 2 * CHUNK + 1 points gives the same polygons as
    one point at a time, and its records are its points, in order."""
    count = 2 * CHUNK + 1
    rep, records = report_and_records(8, 3, 1, mode="random", count=count,
                                      seed=3)
    assert rep.points == len(records) == count
    assert [rec.ints for rec in records] == \
        list(_enumerate_points(8, 3, "random", count, 3))
    for rec in records:
        assert rec.point.to_ints() == rec.ints
        fresh = deformation_display(rec.ctx, rec.point)
        assert newton_slopes(fresh) == rec.polygon


def test_every_point_retries_once_at_low_precision():
    """At n = 5, p = 3 and precision 5 no point is certified at N and
    every point is at 2N: val det is the same at every point."""
    rep, records = report_and_records(5, 3, 1, precision=5)
    assert rep.points == rep.precision_retries == len(records) == 81
    assert rep.precision_failures == []
    for rec in records:
        assert rec.retried and rec.ctx.N == 10
        assert newton_slopes(deformation_display(rec.ctx,
                                                 rec.point)) == rec.polygon


SIGNED_CASES = [pytest.param(p, width, id=f"signed-{p}-{width}")
                for p in (2, 3, 5, 1000003) for width in (1, 5, 64)]


def signed_edges(q):
    """Raw scalars at the edges of the signed range: 0, 1, the two
    residues next to q / 2, and q - 1."""
    return (0, 1, (q - 1) // 2, (q + 1) // 2, q - 1)


def signed_lanes(rng, q, width):
    """width raw scalars at d == 1, half of them drawn from the edges."""
    return [rng.choice(signed_edges(q)) if rng.random() < 0.5
            else rng.randrange(q) for _ in range(width)]


def signed_matrices(rng, q, r, width, density=0.5):
    """(lane columns, per-lane columns) of width random r x r matrices at
    d == 1 with entries from signed_lanes, on one union support."""
    lane_cols = [[] for _ in range(r)]
    for j in range(r):
        for i in range(r):
            e = tuple(signed_lanes(rng, q, width))
            if rng.random() < density and any(e):
                lane_cols[j].append((i, e))
    return lane_cols, [lane_of(lane_cols, lane, 0) for lane in range(width)]


def assert_signed(lops, values):
    """Every lane of every value lies in (-q, q)."""
    q = lops.q
    assert all(-q < x < q for e in values for x in e)


@pytest.mark.parametrize("p,width", SIGNED_CASES)
class TestSignedLanes:
    """At d == 1 a lane scalar is a signed int in (-q, q), q = p^N,
    congruent to the base ops' raw int: every output of the kernels stays
    in that range and unpacks to the base ops' value, so a lane is 0
    exactly when it is 0 mod q and an entry is dropped exactly when every
    lane is 0 mod q."""

    @staticmethod
    def setup(p, width):
        ops = ops_for(make_context(p, 1, 7))
        return ops, random.Random(f"signed {p} {width}")

    def test_pack_round_trip(self, p, width):
        ops, _ = self.setup(p, width)
        lops, q = _LaneOps(ops, width, 4), ops.q
        for raw in signed_edges(q):
            x = lops.pack(raw)
            assert -q < x < q and 2 * abs(x) <= q and lops.unpack(x) == raw
            assert lops.packed([[(0, (raw,) * width)]]) == \
                [[(0, (x,) * width)]]
        assert lops.pack(q - 1) == -1 and lops.pack(q // 2 + 1) < 0

    def test_neg(self, p, width):
        ops, rng = self.setup(p, width)
        lops, q = _LaneOps(ops, width, 4), ops.q
        for _ in range(20):
            lanes = signed_lanes(rng, q, width)
            got = lops.neg(tuple(map(lops.pack, lanes)))
            assert_signed(lops, [got])
            assert list(map(lops.unpack, got)) == [ops.neg(x) for x in lanes]

    def test_smatvec(self, p, width):
        ops, rng = self.setup(p, width)
        q = ops.q
        for r in (1, 3, 6):
            lops = _LaneOps(ops, width, r)
            cols, lanes = signed_matrices(rng, q, r, width)
            for _ in range(4):
                vec = {j: e for j in range(r)
                       if any(e := tuple(signed_lanes(rng, q, width)))}
                got = lops.smatvec(lops.packed(cols), {
                    j: tuple(map(lops.pack, e)) for j, e in vec.items()})
                assert_signed(lops, got.values())
                assert all(any(e) for e in got.values())
                for lane in range(width):
                    want = ops.smatvec(lanes[lane], {
                        j: e[lane] for j, e in vec.items() if e[lane]})
                    assert {i: lops.unpack(e[lane]) for i, e in got.items()
                            if e[lane]} == want

    def test_twisted_product_and_berkowitz(self, p, width):
        ops, rng = self.setup(p, width)
        q = ops.q
        for r in (1, 4, 7):
            lops = _LaneOps(ops, width, r)
            x, xs = signed_matrices(rng, q, r, width)
            y, ys = signed_matrices(rng, q, r, width)
            prod = twisted_product(lops, twisted_factors(
                lops, lops.packed(x), 3, lops.packed(y)))
            assert_signed(lops, [e for row in prod for _, e in row])
            poly = _berkowitz(lops, prod)
            assert_signed(lops, poly)
            for lane in range(width):
                want = twisted_product(
                    ops, twisted_factors(ops, xs[lane], 3, ys[lane]))
                assert as_dicts(lane_of(unpacked(lops, prod), lane, 0)) == \
                    as_dicts(want)
                assert [lops.unpack(c[lane]) for c in poly] == \
                    _berkowitz(ops, want)

    def test_multiples_of_q_are_dropped(self, p, width):
        """Sums landing exactly on q, -q, 2q, q^2 and -q^2 in every lane
        drop the entry; with one lane off a multiple of q the entry stays,
        its other lanes 0."""
        ops, _ = self.setup(p, width)
        lops, q = _LaneOps(ops, width, 3), ops.q
        # (a_t, b_t) per column t: a lane's sum is a_0 b_0 + a_1 b_1 + a_2 b_2
        sums = [((q - 1, 1), (1, 1), (0, 0)),
                ((1 - q, 1), (-1, 1), (0, 0)),
                ((q - 1, 2), (1, 2), (0, 0)),
                ((q - 1, q - 1), (q - 1, 2), (1, 1)),
                ((1 - q, q - 1), (1 - q, 2), (-1, 1))]
        for shift in range(len(sums)):
            lanes = [sums[(shift + t) % len(sums)] for t in range(width)]
            assert all(sum(a * b for a, b in lane) % q == 0
                       for lane in lanes)

            def product(lanes):
                cols = [[(0, tuple(lane[t][0] for lane in lanes))]
                        for t in range(3)]
                vec = {t: tuple(lane[t][1] for lane in lanes)
                       for t in range(3)}
                return lops.smatvec(cols, vec)

            assert product(lanes) == {}
            lanes[-1] = ((1, 1), (0, 0), (0, 0))
            assert product(lanes) == {0: (0,) * (width - 1) + (1,)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_vals_are_the_base_valuations(p, d):
    """vals reads each lane's valuation, that of the base ops on the
    unpacked lane: on 0, on units (packed ints that p divides among them
    at d >= 2) and on p^k u for every k < N."""
    N = 7
    ops = ops_for(make_context(p, d, N))
    q, rng = ops.q, random.Random(f"vals {p} {d}")

    def raw(k):
        """A random raw scalar of valuation exactly k < N."""
        while True:
            coords = [rng.randrange(q) * p ** k % q for _ in range(d)]
            value = coords[0] if d == 1 else tuple(coords)
            if ops.val(value) == k:
                return value

    lanes = [ops.zero, ops.one] + [raw(k) for k in range(N) for _ in range(3)]
    if d > 1:
        lanes += [tuple(c) for c in itertools.product(range(p), repeat=d)]
    else:
        lanes += [q - 1, (q + 1) // 2, q - p]
    lops = _LaneOps(ops, len(lanes), 4)
    packed = tuple(map(lops.pack, lanes))
    assert lops.vals(packed) == [ops.val(x) for x in lanes]
    assert [lops.unpack(x) for x in packed] == lanes
    if d > 1 and p > 2:
        # some unit packs to an int that p divides, which vals reads by
        # its slots
        assert any(x % p == 0 and ops.val(raw) == 0
                   for x, raw in zip(packed, lanes))


def test_vals_hold_no_table_of_powers():
    """At precision 5000 vals holds only the powers of p it meets, not all
    5001 of them (about 2.5 MB at p = 3): the peak under tracemalloc of
    building the lane ops and reading six lanes stays small."""
    ops = ops_for(make_context(3, 1, 5000))
    q = ops.q
    lanes = (0, 1, q - 1, 3, 3 ** 4999, 2 * 3 ** 2500)
    tracemalloc.start()
    try:
        lops = _LaneOps(ops, len(lanes), 8)
        got = lops.vals(tuple(map(lops.pack, lanes)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [5000, 0, 0, 1, 4999, 2500]
    assert peak < 200_000, peak


def test_lanes_with_different_valuation_rows_share_equal_hulls():
    """Two diagonal blocks, each the companion matrix of x^2 - a x + p^2,
    with the valuation row (2, val a, 0): val a = 1, 2 or N sits on or
    above the hull from (0, 2) to (2, 0) and val a = 0 does not.  Lanes
    whose rows differ but whose hulls agree in both blocks share one
    (pairs, term) object; a lane whose first block matches another's and
    whose second does not gets its own."""
    ops = ops_for(make_context(3, 1, 7))
    p, q = ops.p, ops.q
    firsts = (p, p * p, 0, 2 * p, 1, p)
    seconds = (p, 0, p * p, p, p, 1)
    width = len(firsts)
    lops = _LaneOps(ops, width, 4)
    b, one = (q - p * p,) * width, (1,) * width
    srows = lops.packed([[(1, b)], [(0, one), (1, firsts)],
                         [(3, b)], [(2, one), (3, seconds)]])
    assert len(_blocks(srows)) == 2
    got = lane_slope_pairs(lops, srows, 1, (1, 1))
    assert got[0] is got[1] is got[2] is got[3]
    assert len({id(x) for x in got}) == 3
    assert got[0] == ([(Fraction(1), 2), (Fraction(1), 2)], 4)
    # the unit a moves the hull of lane 4's first block and of lane 5's
    # second: the same slopes, from different blocks
    for lane in (4, 5):
        pairs, term = got[lane]
        assert (sorted(pairs), term) == ([(0, 1), (1, 2), (2, 1)], 4)


@pytest.mark.parametrize("precision,retried", [(None, 0), (5, 81)])
def test_sweep_builds_a_point_only_for_a_retried_point(
        monkeypatch, precision, retried):
    """A spy on DeformationPoint.from_ints counts one call per point
    retried at 2N and none for a point certified at N: a record holds
    the point's codes, and its point is built at ctx when it is read."""
    calls = []
    from_ints = DeformationPoint.from_ints.__func__

    def spy(cls, ctx, n, ints):
        calls.append((ctx.N, ints))
        return from_ints(cls, ctx, n, ints)

    monkeypatch.setattr(DeformationPoint, "from_ints", classmethod(spy))
    rep, records = report_and_records(5, 3, 1, precision=precision)
    assert rep.precision_retries == retried == len(calls)
    assert calls == [(rec.ctx.N, rec.ints) for rec in records if rec.retried]
    assert "point" not in strata.PointRecord._fields
    del calls[:]
    assert records[-1].point.to_ints() == records[-1].ints
    assert calls == [(records[-1].ctx.N, records[-1].ints)]


def test_reducer_classifies_each_shared_polygon_once(monkeypatch):
    """Lanes with equal hulls share one polygon, and the reducer
    classifies each polygon object once: one classify call per distinct
    polygon of a random sweep, and the report of one call per record."""
    calls = []

    def spy(n, polygon):
        calls.append(polygon)
        return strata_classify(n, polygon)

    strata_classify = strata.classify
    monkeypatch.setattr(strata, "classify", spy)
    rep, records = report_and_records(8, 3, 1, mode="random",
                                      count=3 * CHUNK, seed=28)
    distinct = {id(rec.polygon) for rec in records}
    assert len(calls) == len({id(pg) for pg in calls}) == len(distinct)
    assert len(distinct) < len(records)
    assert rep.counts_by_stratum == dict(sorted(Counter(
        strata_classify(8, rec.polygon) for rec in records).items()))
