"""Characteristic polynomials of graded displays from the n x n matrix of
F^2 on the u-part, against the dense rank-2n oracles, the slopes that
newton_slopes reads from the half-rank factor h against those of the dense
twisted charpoly, and the certificate at the working precision N."""

import itertools
import random
from fractions import Fraction

import pytest

from gustrata import (DieudonneDisplay, NewtonPolygon, PrecisionError,
                      RingContext, _linalg, default_precision,
                      display_from_json, make_context, module_M,
                      newton_slopes)
from gustrata.displayzoo import parse_module_spec
from gustrata.fcrystal import U, V, BasisLabel

from _oracles import (certified_slope_pairs_oracle, expansion_charpoly,
                      leibniz_charpoly_int, leibniz_charpoly_scalar,
                      scalar_valuation, twisted_product_dense)


def dense_charpoly(rows, ctx):
    """det(xI - M) for dense scalar rows: Leibniz while r! is small."""
    if len(rows) <= 6:
        return leibniz_charpoly_scalar(rows, ctx)
    return expansion_charpoly(rows, ctx.zero(), ctx.one())


def random_entry(rng, ctx):
    """A nonzero scalar, a unit or a multiple of p or p^2."""
    while True:
        e = ctx.scalar(tuple(rng.randrange(ctx.q) * ctx.p ** rng.randrange(3)
                             for _ in range(ctx.d)))
        if not e.is_zero():
            return e


def random_display(rng, ctx, labels, density, crossing_only=True,
                   zero_columns=()):
    """Display on the labels with random F entries: each allowed entry is
    nonzero with the given density, an entry is allowed when it joins the
    two families (or always, without crossing_only), and the columns in
    zero_columns vanish.  The pairing is zero: no charpoly reads it."""
    r = len(labels)
    zero = ctx.zero()

    def allowed(i, j):
        return (j not in zero_columns
                and (not crossing_only or labels[i].family != labels[j].family))

    columns = [[random_entry(rng, ctx)
                if allowed(i, j) and rng.random() < density else zero
                for i in range(r)] for j in range(r)]
    return DieudonneDisplay(ctx, labels, columns, [[zero] * r] * r)


def shuffled_labels(rng, n):
    labels = [U(i) for i in range(n)] + [V(i) for i in range(n)]
    rng.shuffle(labels)
    return labels


def row_counts(monkeypatch, name):
    """Row counts of the matrices _linalg.<name> receives from now on."""
    rows = []
    original = getattr(_linalg, name)

    def counting(ops, srows):
        rows.append(len(srows))
        return original(ops, srows)

    monkeypatch.setattr(_linalg, name, counting)
    return rows


def twisted_factor(display):
    """(srows, scale) of the matrix Z whose polygon newton_slopes reads
    for the display, caught on its way into _linalg.lane_slope_pairs,
    which a single display runs on its base ops, so the rows hold raw
    scalars.  Z has n rows for a graded display and the whole rank
    otherwise."""
    seen = []
    original = _linalg.lane_slope_pairs

    def spy(ops, srows, twist, scale):
        seen.append(([list(row) for row in srows], scale))
        return original(ops, srows, twist, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_linalg, "lane_slope_pairs", spy)
        fresh = DieudonneDisplay._from_sparse(
            display.ctx, display.basis, display.sparse_frobenius,
            display.sparse_pairing)
        try:
            newton_slopes(fresh)
        except PrecisionError:
            pass
    [factor] = seen
    return factor


def expand_factor(display, srows, scale):
    """The polynomial a factor (srows, scale) of twisted_factor stands
    for, as scalars, with h the charpoly of srows: h itself, h(t^2), or
    h * sigma(h) by schoolbook products."""
    ops, zero = display._ops(), display.ctx.zero()
    h = [ops.wrap(c) for c in _linalg.charpoly(ops, srows)]
    if scale == (1, 1):
        return h
    if scale == (2, 1):
        out = [zero] * (2 * len(h) - 1)
        out[::2] = h
        return out
    assert scale == (2, 2)
    out = [zero] * (2 * len(h) - 1)
    for i, a in enumerate(h):
        for j, b in enumerate(h):
            out[i + j] = out[i + j] + a * b.frobenius()
    return out


def dense_twisted_charpoly(display):
    """The full rank-2n twisted charpoly as scalars, from the dense
    oracles alone."""
    ctx = display.ctx
    return expansion_charpoly(twisted_product_dense(display.frobenius, ctx.d),
                              ctx.zero(), ctx.one())


def dense_twisted_polygon(display):
    """The certified polygon of dense_twisted_charpoly, by the hull oracle;
    PrecisionError as newton_slopes raises it."""
    N = display.ctx.N
    return NewtonPolygon(certified_slope_pairs_oracle(
        [scalar_valuation(c, N) for c in dense_twisted_charpoly(display)],
        N, display.ctx.d))


def assert_matches_dense(display):
    """The twisted charpoly agrees with the dense oracle; at d = 1 it is
    the charpoly of A."""
    ctx = display.ctx
    rows = display.frobenius
    twisted = expand_factor(display, *twisted_factor(display))
    assert twisted == dense_charpoly(twisted_product_dense(rows, ctx.d), ctx)
    if ctx.d == 1:
        assert twisted == dense_charpoly(rows, ctx)


class TestExpansionOracle:
    """The memoized cofactor expansion is the Leibniz expansion."""

    @pytest.mark.parametrize("r", range(1, 7))
    def test_against_leibniz(self, r):
        rng = random.Random(r)
        q = 3 ** 4
        m = [[rng.randrange(q) if rng.random() < 0.6 else 0
              for _ in range(r)] for _ in range(r)]
        assert [c % q for c in expansion_charpoly(m, 0, 1)] == \
            leibniz_charpoly_int(m, q)
        ctx = make_context(2, 3, 5)
        s = [[random_entry(rng, ctx) if rng.random() < 0.6 else ctx.zero()
              for _ in range(r)] for _ in range(r)]
        assert expansion_charpoly(s, ctx.zero(), ctx.one()) == \
            leibniz_charpoly_scalar(s, ctx)


class TestGradedAgainstDense:
    """Random graded displays, basis order shuffled, with a zero column in
    X and one in Y on every other draw: one charpoly on n rows gives both
    polynomial of the dense route, the charpoly of A at d = 1."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_twisted_and_plain(self, n, d, monkeypatch):
        p = (2, 3, 5)[(n + d) % 3]
        ctx = make_context(p, d, 6)
        rng = random.Random(100 * n + 10 * d + p)
        for draw, density in enumerate((0.4, 0.8) if n < 5 else (0.5,)):
            labels = shuffled_labels(rng, n)
            dead = ()
            if draw % 2 == 0:
                dead = {labels.index(U(rng.randrange(n))),
                        labels.index(V(rng.randrange(n)))}
            display = random_display(rng, ctx, labels, density,
                                     zero_columns=dead)
            rows = row_counts(monkeypatch, "charpoly")
            assert_matches_dense(display)
            assert rows == [n]
            monkeypatch.undo()


class TestUngradedAgainstDense:
    """Displays that are not graded take the full rank-2n route."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_entry_inside_a_family(self, n, d, monkeypatch):
        ctx = make_context(3, d, 6)
        rng = random.Random(10 * n + d)
        labels = shuffled_labels(rng, n)
        graded = random_display(rng, ctx, labels, 0.6)
        i, j = labels.index(U(rng.randrange(n))), labels.index(U(0))
        columns = [list(col) for col in zip(*graded.frobenius)]
        columns[j][i] = random_entry(rng, ctx)
        display = DieudonneDisplay(ctx, labels, columns, graded.pairing)
        rows = row_counts(monkeypatch, "charpoly")
        assert_matches_dense(display)
        assert rows == [2 * n]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_halves_of_unequal_size(self, n, d, monkeypatch):
        ctx = make_context(5, d, 6)
        rng = random.Random(20 * n + d)
        labels = [U(i) for i in range(n + 1)] + [V(i) for i in range(n - 1)]
        rng.shuffle(labels)
        display = random_display(rng, ctx, labels, 0.6)
        rows = row_counts(monkeypatch, "charpoly")
        assert_matches_dense(display)
        assert rows == [2 * n]


class TestHalfRankCount:
    # the rows Berkowitz reads: n, or the distinct summands' half ranks
    ROWS = {"def(8; s0=1, s2=2, s3=1, s5=2)": 8, "M(6)+N^2": 6 + 1,
            "M(7)+N^3": 7 + 1, "ss(5)": 5}

    @pytest.mark.parametrize("text,d", [
        ("def(8; s0=1, s2=2, s3=1, s5=2)", 1), ("M(6)+N^2", 2),
        ("M(7)+N^3", 3), ("ss(5)", 4)])
    def test_charpoly_receives_n_rows(self, text, d, monkeypatch):
        # newton_slopes runs Berkowitz on the diagonal blocks of the n x n
        # matrix, once per display or, for a direct sum, once per distinct
        # summand, and forms no whole charpoly; the display's twin read
        # from JSON has no parts and reads its whole n x n matrix
        spec = parse_module_spec(text)
        display = spec.build(make_context(
            2 if d == 4 else 3, d, default_precision(spec.half_rank, d)))
        twin = display_from_json(display.to_json())
        whole = row_counts(monkeypatch, "charpoly")
        rows = row_counts(monkeypatch, "_berkowitz")
        newton_slopes(display)
        newton_slopes(display)
        assert sum(rows) == self.ROWS[text] and whole == []
        del rows[:]
        newton_slopes(twin)
        assert sum(rows) == twin.half_rank and whole == []


class TestCertificateAtN:
    def graded(self, N, k):
        """F on u0, u1, v0, v1 with X = I and Y = diag(1, -1 - p^k): the
        twisted charpoly t^4 + p^k t^2 - (1 + p^k) has unit roots and a
        t^2 coefficient of valuation k."""
        ctx = make_context(3, 1, N)
        one, zero = ctx.one(), ctx.zero()
        y1 = ctx.from_int(-1 - 3 ** k)
        columns = [[zero, zero, one, zero], [zero, zero, zero, y1],
                   [one, zero, zero, zero], [zero, one, zero, zero]]
        return DieudonneDisplay(ctx, (U(0), U(1), V(0), V(1)), columns,
                                [[zero] * 4] * 4)

    def test_capped_non_vertex_is_certified(self):
        at_n, exact = self.graded(3, 5), self.graded(12, 5)
        for display, val in ((at_n, 3), (exact, 5)):
            # at d = 1 the charpoly of A is the twisted one, h(t^2)
            vals = [scalar_valuation(c, display.ctx.N) for c in expand_factor(
                display, *twisted_factor(display))]
            assert vals == [0, display.ctx.N, val, display.ctx.N, 0]
        # capped at N = 3, the t^2 coefficient is no hull vertex
        assert newton_slopes(at_n) == newton_slopes(exact) == \
            NewtonPolygon([(Fraction(0), 4)])

    def test_exactly_zero_coefficients_are_capped_too(self):
        # M(4) has twisted charpoly t^8 + (unit) p t^4 + p^4: the odd
        # coefficients and t^2, t^6 vanish, and read as valuation N
        display = module_M(make_context(3, 1, 5), 4)
        assert [scalar_valuation(c, display.ctx.N) for c in expand_factor(
            display, *twisted_factor(display))] == \
            [4, 5, 5, 5, 1, 5, 5, 5, 0]
        assert newton_slopes(display) == NewtonPolygon(
            [(Fraction(1, 4), 4), (Fraction(3, 4), 4)])

    @pytest.mark.parametrize("d", [1, 2])
    def test_vertex_at_cap_on_both_routes(self, d, monkeypatch):
        graded = module_M(make_context(3, d, 2), 3)
        # the same matrix with a v-label renamed into the u-family: its
        # halves differ in size, so the full-rank route runs
        basis = tuple(BasisLabel("u", 99) if b == V(3) else b
                      for b in graded.basis)
        ungraded = DieudonneDisplay._from_sparse(
            graded.ctx, basis, graded.sparse_frobenius,
            graded.sparse_pairing)
        rows = row_counts(monkeypatch, "_berkowitz")
        per_display = []
        for display in (graded, ungraded):
            with pytest.raises(PrecisionError) as err:
                newton_slopes(display)
            assert str(err.value) == ("insufficient precision: hull vertex "
                                      "at degree 0 has valuation >= 2")
            per_display.append(sum(rows) - sum(per_display))
        assert per_display == [3, 6]

    @pytest.mark.parametrize("text,d,N", [
        ("def(6; s0=1, s2=2)", 1, 9), ("M(5)+N", 2, 4), ("M(3)", 3, 2),
        ("M(4)", 1, 3)])
    def test_no_context_above_n(self, text, d, N, monkeypatch):
        display = parse_module_spec(text).build(make_context(3, d, N))
        built = []
        original = RingContext._init

        def spy(self, prec, root):
            built.append(prec)
            original(self, prec, root)

        monkeypatch.setattr(RingContext, "_init", spy)
        try:
            newton_slopes(display)
        except PrecisionError:
            pass
        assert built == []


def outcome(compute):
    """The value of compute(), or the text of the PrecisionError it
    raises."""
    try:
        return compute()
    except PrecisionError as exc:
        return str(exc)


class TestSlopesFromFactor:
    """newton_slopes reads a graded display's polygon from h; the dense
    oracle takes the hull of the full rank-2n twisted charpoly.  They agree
    on every slope and, where the polygon is not certified, on the text of
    the PrecisionError."""

    @staticmethod
    def draw(seed, ctx, n, zero_columns, density=0.9):
        """A random graded display on shuffled labels; the integer data
        depend on the seed alone, not on the precision, and entries are
        units or multiples of p and p^2.  A zero column makes h_0 = 0, so
        such a polygon is never certified."""
        rng = random.Random(seed)
        labels = shuffled_labels(rng, n)
        dead = set()
        if zero_columns:
            dead = {labels.index(U(rng.randrange(n))),
                    labels.index(V(rng.randrange(n)))}
        zero = ctx.zero()
        columns = []
        for j in range(2 * n):
            col = []
            for i in range(2 * n):
                if (j in dead or labels[i].family == labels[j].family
                        or rng.random() > density):
                    col.append(zero)
                    continue
                scale = ctx.p ** rng.randrange(3)
                col.append(ctx.scalar(tuple(
                    rng.randrange(1, ctx.p ** 4) * scale % ctx.q
                    for _ in range(ctx.d))))
            columns.append(col)
        return DieudonneDisplay(ctx, labels, columns, [[zero] * (2 * n)] *
                                (2 * n))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_dense_twisted_charpoly(self, n, d):
        p = (2, 3)[(n + d) % 2]
        top = default_precision(n, d)
        raised = set()
        for N in sorted({2, 3, 4, 6, 9, top}):
            ctx = make_context(p, d, N)
            for draw in range(3):
                seed = 1000 * n + 100 * d + 10 * draw + N
                display = self.draw(seed, ctx, n, zero_columns=draw == 0,
                                    density=(0.6, 0.9, 1.0)[draw])
                assert twisted_factor(display)[1] != (1, 1)
                slopes = outcome(lambda: newton_slopes(display))
                dense = outcome(lambda: dense_twisted_polygon(display))
                assert slopes == dense, (N, draw)
                raised.add(isinstance(slopes, str))
        # both the certified and the failing path are exercised
        assert raised == {False, True}

    @pytest.mark.parametrize("n,d,p", [(2, 2, 3), (3, 2, 2), (2, 4, 2),
                                       (3, 4, 3)])
    def test_even_d_doubles_the_constant_term(self, n, d, p):
        """Even d with N / 2 <= val h_0 < N: h alone is certified, but the
        constant term h_0 sigma(h_0) of the twisted charpoly has valuation
        2 val h_0 >= N, so the polygon is not, on either route."""
        # the first draw whose twisted charpoly has a constant term of
        # valuation 2 val h_0 in [2, 40)
        for seed in itertools.count(77 * n + d):
            exact = self.draw(seed, make_context(p, d, 40), n, False)
            v = scalar_valuation(dense_twisted_charpoly(exact)[0], 40)
            if 2 <= v < 40:
                break
        assert v % 2 == 0
        for N in sorted({v // 2 + 1, v}):
            display = self.draw(seed, make_context(p, d, N), n, False)
            ops = display._ops()
            srows, scale = twisted_factor(display)
            h = _linalg.charpoly(ops, srows)
            assert scale == (2, 2) and ops.val(h[0]) == v // 2
            # h alone, unscaled, is certified: its term is val h_0 < N
            lops = _linalg._LaneOps(ops, 1, len(srows))
            [(pairs, term)] = _linalg.lane_slope_pairs(
                lops, lops.packed([[(j, (a,)) for j, a in row]
                                   for row in srows]), d, (1, 1))
            assert pairs and term == v // 2 < N
            message = ("insufficient precision: hull vertex at degree 0 "
                       f"has valuation >= {N}")
            assert outcome(lambda: newton_slopes(display)) == message
            assert outcome(lambda: dense_twisted_polygon(display)) == message
        above = self.draw(seed, make_context(p, d, v + 1), n, False)
        assert newton_slopes(above) == dense_twisted_polygon(above)


class TestHullOracle:
    """The hull oracle on hand-computed points."""

    def test_vertices_and_slopes(self):
        half = Fraction(1, 2)
        assert certified_slope_pairs_oracle([3, 2, 1, 0], 9, 1) == [(1, 3)]
        assert certified_slope_pairs_oracle([4, 1, 1, 0], 9, 1) == [
            (3, 1), (half, 2)]
        assert certified_slope_pairs_oracle([2, 5, 0], 5, 2) == [(half, 2)]

    def test_vertex_at_cap_raises(self):
        with pytest.raises(PrecisionError, match="degree 0 has valuation "
                                                 ">= 5$"):
            certified_slope_pairs_oracle([5, 5, 0], 5, 1)
