import random
from fractions import Fraction

import pytest

from gustrata import (DeformationPoint, deformation_display, make_context,
                      parse_module_spec)
from gustrata import NewtonPolygon, PrecisionError
from gustrata._linalg import (_berkowitz, _blocks, _LaneOps,
                              _restrict, adjugate_action, charpoly,
                              det_valuation, lane_slope_pairs,
                              lower_hull, mat_mul, ops_for, sparse_rows,
                              sparse_transpose, strongly_connected_components,
                              pivot_steps, twisted_factors,
                              twisted_product)

from _oracles import (cayley_hamilton_adjugate, certified_slope_pairs_oracle,
                      leibniz_charpoly_int, leibniz_charpoly_scalar,
                      scalar_valuation, twisted_product_dense)


class TestCharpolyAgainstLeibniz:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_random_integer_matrices(self, r):
        ctx = make_context(3, 1, 10)
        ops = ops_for(ctx)
        rng = random.Random(1000 + r)
        for _ in range(6):
            rows = [[rng.randrange(ctx.q) for _ in range(r)]
                    for _ in range(r)]
            assert charpoly(ops, sparse_rows(ops, rows)) == \
                leibniz_charpoly_int(rows, ctx.q)

    def test_power_of_two_modulus(self):
        ctx = make_context(2, 1, 12)
        ops = ops_for(ctx)
        rng = random.Random(7)
        for r in (2, 4, 5):
            rows = [[rng.randrange(ctx.q) for _ in range(r)]
                    for _ in range(r)]
            assert charpoly(ops, sparse_rows(ops, rows)) == \
                leibniz_charpoly_int(rows, ctx.q)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_extension_ring_matrices(self, r):
        ctx = make_context(3, 2, 6)
        ops = ops_for(ctx)
        rng = random.Random(42 + r)
        rows = [[ctx.scalar((rng.randrange(ctx.q), rng.randrange(ctx.q)))
                 for _ in range(r)] for _ in range(r)]
        raw = [[ops.unwrap(e) for e in row] for row in rows]
        got = [ops.wrap(c) for c in charpoly(ops, sparse_rows(ops, raw))]
        assert got == leibniz_charpoly_scalar(rows, ctx)

    def test_monic_and_degree(self):
        ctx = make_context(5, 1, 8)
        ops = ops_for(ctx)
        rows = [[1, 2], [3, 4]]
        cp = charpoly(ops, sparse_rows(ops, rows))
        assert len(cp) == 3 and cp[-1] == 1
        # trace and determinant of [[1,2],[3,4]] mod 5^8
        assert cp[1] == (-5) % ctx.q
        assert cp[0] == (-2) % ctx.q


def sparse_matrix(rng, r, density, entry):
    """r x r matrix with about density * r^2 nonzero entries from entry(),
    with one row and one column forced to zero when r > 1."""
    rows = [[entry() if rng.random() < density else None for _ in range(r)]
            for _ in range(r)]
    if r > 1:
        zero_row, zero_col = rng.randrange(r), rng.randrange(r)
        for j in range(r):
            rows[zero_row][j] = None
        for i in range(r):
            rows[i][zero_col] = None
    return rows


def int_entry(rng, q):
    return lambda: rng.randrange(1, q)


def ext_entry(rng, ctx):
    def entry():
        coords = (0, 0)
        while coords == (0, 0):
            coords = (rng.randrange(ctx.q), rng.randrange(ctx.q))
        return ctx.scalar(coords)
    return entry


class TestPolyProd:
    """charpoly of the diagonal matrix of the a_i, one Berkowitz run on
    the whole matrix, against a sequential integer convolution of the
    factors t - a_i."""

    @staticmethod
    def convolution(roots, q):
        out = [1]  # low degree first
        for a in roots:
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i] -= a * c
                nxt[i + 1] += c
            out = [c % q for c in nxt]
        return out

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 1000])
    def test_linear_factors(self, k):
        ops = ops_for(make_context(3, 1, 10))
        rng = random.Random(k)
        roots = [rng.randrange(ops.q) for _ in range(k)]
        want = self.convolution(roots, ops.q)
        diagonal = [[(i, a)] if a else [] for i, a in enumerate(roots)]
        assert charpoly(ops, diagonal) == want


class TestSparseCharpoly:
    @pytest.mark.parametrize("density", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7])
    def test_integer_matrices(self, r, density):
        ctx = make_context(3, 1, 10)
        ops = ops_for(ctx)
        rng = random.Random(int(100 * density) + 1000 * r)
        for _ in range(3):
            rows = [[0 if e is None else e for e in row]
                    for row in sparse_matrix(rng, r, density,
                                             int_entry(rng, ctx.q))]
            assert charpoly(ops, sparse_rows(ops, rows)) == \
                leibniz_charpoly_int(rows, ctx.q)

    @pytest.mark.parametrize("density", [0.1, 0.3])
    @pytest.mark.parametrize("r", [1, 3, 5, 7])
    def test_extension_ring_matrices(self, r, density):
        ctx = make_context(3, 2, 6)
        ops = ops_for(ctx)
        rng = random.Random(int(100 * density) + 1000 * r)
        rows = [[ctx.zero() if e is None else e for e in row]
                for row in sparse_matrix(rng, r, density,
                                         ext_entry(rng, ctx))]
        raw = [[ops.unwrap(e) for e in row] for row in rows]
        got = [ops.wrap(c) for c in charpoly(ops, sparse_rows(ops, raw))]
        assert got == leibniz_charpoly_scalar(rows, ctx)

    def test_sparse_rows_keep_only_nonzero_entries(self):
        ops = ops_for(make_context(3, 2, 6))
        rows = [[(0, 0), (1, 0)], [(0, 0), (0, 0)]]
        assert sparse_rows(ops, rows) == [[(1, (1, 0))], []]


def scalar_product(a, b, ctx):
    """Plain product of PadicScalar matrices, entry by entry."""
    r = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(r)), ctx.zero())
             for j in range(r)] for i in range(r)]


def scalar_identity(c, r, ctx):
    return [[c if i == j else ctx.zero() for j in range(r)]
            for i in range(r)]


def adjugate(ops, cols):
    """adjugate_action from the pivots of its own elimination."""
    return adjugate_action(ops, cols, pivot_steps(ops, cols))


def assert_adjugate_identities(ops, m):
    """adjugate_action's (v, W) on the scalar rows m, checked: v is the
    valuation of the constant term c0 of the charpoly, and when v < N,
    M W = W M = p^v I, so B = (-c0 / p^v) W is the adjugate action with
    M B = B M = -c0 I; each entry of W has the valuation of the matching
    entry of the Cayley-Hamilton adjugate (capped at N), and its rows are
    sparse, columns ascending.  Returns v."""
    ctx, r = ops.ctx, len(m)
    srows = sparse_rows(ops, [[ops.unwrap(e) for e in row] for row in m])
    cp = charpoly(ops, srows)
    v, w = adjugate(ops, sparse_transpose(srows, r))
    assert v == ops.val(cp[0])
    if v == ctx.N:
        assert w is None
        return v
    dense = [[ctx.zero()] * r for _ in range(r)]
    for i, row in enumerate(w):
        assert [j for j, _ in row] == sorted({j for j, _ in row})
        for j, e in row:
            assert e != ops.zero
            dense[i][j] = ops.wrap(e)
    p_v = scalar_identity(ctx.from_int(ctx.p ** v), r, ctx)
    assert scalar_product(m, dense, ctx) == p_v
    assert scalar_product(dense, m, ctx) == p_v
    unit = -ops.wrap(ops.divexact_p(cp[0], v))
    b = [[unit * e for e in row] for row in dense]
    minus_c0 = scalar_identity(-ops.wrap(cp[0]), r, ctx)
    assert scalar_product(m, b, ctx) == minus_c0
    assert scalar_product(b, m, ctx) == minus_c0
    _, oracle = cayley_hamilton_adjugate(m, ctx.zero(), ctx.one())
    assert [[scalar_valuation(e, ctx.N) for e in row] for row in dense] == \
        [[scalar_valuation(e, ctx.N) for e in row] for row in oracle]
    return v


def shifted(rng, ctx, m, entry, permute=True):
    """m plus a monomial (permute) or diagonal matrix with entries p^k
    times units, k in 0..2, which is invertible whenever m is zero."""
    r = len(m)
    perm = rng.sample(range(r), r) if permute else list(range(r))
    out = [list(row) for row in m]
    for i, j in enumerate(perm):
        out[i][j] = out[i][j] + entry() * ctx.from_int(
            ctx.p ** rng.randrange(3))
    return out


class TestSparseAdjugate:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("r", [1, 2, 4, 6, 7])
    def test_both_sides_give_minus_c0(self, r, d):
        ctx = make_context(3, d, 6)
        ops = ops_for(ctx)
        rng = random.Random(7 * r + d)
        entry = (ext_entry(rng, ctx) if d > 1
                 else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
        for density in (0.1, 0.2, 0.3):
            m = [[ctx.zero() if e is None else e for e in row]
                 for row in sparse_matrix(rng, r, density, entry)]
            # with its zero row and column m is singular for r > 1
            assert_adjugate_identities(ops, m)
            assert_adjugate_identities(ops, shifted(rng, ctx, m, entry))


def low_rank_matrix(rng, ctx, r, entry):
    """r x r matrix of rank below r over W_N, so singular mod p^N: each row
    a combination of the same r - 1 random rows."""
    basis = [[entry() for _ in range(r)] for _ in range(r - 1)]
    out = []
    for _ in range(r):
        coeffs = [entry() for _ in basis]
        out.append([sum((c * row[j] for c, row in zip(coeffs, basis)),
                        ctx.zero()) for j in range(r)])
    return out


class TestDetValuation:
    """det_valuation against the valuation of the constant term of the
    Leibniz charpoly, which is (-1)^r det M."""

    @staticmethod
    def cases(d):
        ctx = make_context(3, d, 6)
        rng = random.Random(500 + d)
        entry = (ext_entry(rng, ctx) if d > 1
                 else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
        cases = []
        for r in (1, 2, 3, 4, 5):
            for density in (0.3, 0.7):
                m = [[ctx.zero() if e is None else e for e in row]
                     for row in sparse_matrix(rng, r, density, entry)]
                cases += [m, shifted(rng, ctx, m, entry),
                          shifted(rng, ctx, m, entry, permute=False)]
            # entries p^k * unit, k in 0..3: val det often at or above N
            cases.append([[entry() * ctx.from_int(ctx.p ** rng.randrange(4))
                           for _ in range(r)] for _ in range(r)])
            if r > 1:
                cases.append(low_rank_matrix(rng, ctx, r, entry))
            # p^2 * unit on the diagonal: det = p^(2r) * unit, capped at N
            cases.append([[entry() * ctx.from_int(ctx.p ** 2) if i == j
                           else ctx.zero() for j in range(r)]
                          for i in range(r)])
        return ctx, cases

    @pytest.mark.parametrize("d", [1, 2])
    def test_against_leibniz_constant_term(self, d):
        ctx, cases = self.cases(d)
        ops = ops_for(ctx)
        seen = set()
        for m in cases:
            raw = [[ops.unwrap(e) for e in row] for row in m]
            want = scalar_valuation(leibniz_charpoly_scalar(m, ctx)[0], ctx.N)
            assert det_valuation(ops, sparse_rows(ops, raw)) == want, m
            seen.add(min(want, 3) if want < ctx.N else "capped")
        # units, positive valuations and determinants 0 mod p^N all occur
        assert seen == {0, 1, 2, 3, "capped"}

    def test_rows_are_not_changed(self):
        ops = ops_for(make_context(3, 1, 6))
        srows = [[(0, 3), (1, 1)], [(0, 9), (1, 6)]]
        copy = [list(row) for row in srows]
        assert det_valuation(ops, srows) == 2
        assert srows == copy


class TestPivotOrder:
    """_eliminate takes the least (k, row, column) among the unpivoted
    entries at each step, as a scan of every entry does; its heap items
    carry their entries, and each entry gets one valuation."""

    @staticmethod
    def scan_steps(ops, cols):
        """pivot_steps by a full scan for the least (k, row, column)."""
        r = len(cols)
        rows = [{r + i: ops.one} for i in range(r)]
        for j, col in enumerate(cols):
            for i, a in col:
                rows[i][j] = a
        live, steps, v = set(range(r)), [], 0
        while True:
            found = [(ops.val(a), i, j) for i in live
                     for j, a in rows[i].items() if j < r]
            if not found:
                return steps
            k, i, c = min(found)
            v += k
            if v >= ops.cap:
                return steps
            live.discard(i)
            row = rows[i]
            unit_inv = ops.inv(ops.divexact_p(row.pop(c), k))
            for t in live:
                other = rows[t]
                if c in other:
                    f = ops.mul(ops.divexact_p(other.pop(c), k), unit_inv)
                    for j, b in row.items():
                        e = ops.sub(other.get(j, ops.zero), ops.mul(f, b))
                        if e != ops.zero:
                            other[j] = e
                        else:
                            other.pop(j, None)
            steps.append((c, k, unit_inv, row))

    @pytest.mark.parametrize("p,d,N", [(2, 1, 6), (3, 1, 8), (3, 2, 5),
                                       (2, 3, 6)])
    def test_random_sparse_matrices(self, p, d, N):
        ctx = make_context(p, d, N)
        ops = ops_for(ctx)
        rng = random.Random(p * 100 + d * 10 + N)
        # few distinct values, so entries collide and change back and forth
        values = [ctx.scalar([rng.choice((0, 1, p, p + 1, p * p, ctx.q - 1))
                              for _ in range(d)]) for _ in range(8)]
        for _ in range(40):
            r = rng.randrange(1, 8)
            cols = sparse_rows(ops, [[ops.unwrap(rng.choice(values))
                                      if rng.random() < 0.5 else ops.zero
                                      for _ in range(r)] for _ in range(r)])
            assert pivot_steps(ops, cols) == self.scan_steps(ops, cols)

    @pytest.mark.parametrize("spec,d", [("def(6; s0=1, s2=2, s5=2)", 1),
                                        ("M(5)+N^2", 2)])
    def test_display_pivots(self, spec, d):
        spec = parse_module_spec(spec)
        D = spec.build(make_context(3, d, 4 * spec.half_rank * d + 8))
        cols = D.sparse_frobenius
        assert pivot_steps(D._ops(), cols) == self.scan_steps(D._ops(), cols)


class TestPivotInverses:
    """_eliminate inverts each distinct pivot unit once per call.  The
    pivots of F for M(m) are 1 and p = p * 1, and (-1)^m at F u_1: one
    distinct unit for even m, two for odd m."""

    @staticmethod
    def spy_inv(ops):
        inverted = []
        inv = ops.inv

        def counting(u):
            inverted.append(u)
            return inv(u)

        ops.inv = counting
        return inverted

    @pytest.mark.parametrize("m,units", [(14, 1), (13, 2)])
    def test_adjugate_inverts_each_unit_once(self, m, units):
        ctx = make_context(5, 2, 16)
        ops = ops_for(ctx)
        cols = parse_module_spec(f"M({m})").build(ctx).sparse_frobenius
        inverted = self.spy_inv(ops)
        v, w = adjugate(ops, cols)
        assert len(inverted) == len(set(inverted)) == units
        assert v == m and len(w) == 2 * m

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_adjugate_with_shared_inverses_matches_oracle(self, m):
        # M(m) at v = m < N, checked against the Cayley-Hamilton adjugate
        # with the spy in place
        ctx = make_context(5, 2, 8)
        ops = ops_for(ctx)
        display = parse_module_spec(f"M({m})").build(ctx)
        inverted = self.spy_inv(ops)
        assert assert_adjugate_identities(
            ops, [list(row) for row in display.frobenius]) == m
        assert len(inverted) == 1 + m % 2

    @pytest.mark.parametrize("spec,d", [("N^8", 1), ("M(5)+N^3", 2)])
    def test_adjugate_scales_once_per_distinct_pivot(self, spec, d):
        # each distinct (k, u^(-1)) gets its p^(v - k) u^(-1) once; the
        # back substitution still agrees with the oracle's identities
        ctx = make_context(3, d, 24)
        ops = ops_for(ctx)
        display = parse_module_spec(spec).build(ctx)
        steps = pivot_steps(ops, display.sparse_frobenius)
        pairs = {(k, u) for _, k, u, _ in steps}
        scaled = []
        scale = ops.scale

        def counting(k, a):
            scaled.append((k, a))
            return scale(k, a)

        ops.scale = counting
        v, w = adjugate_action(ops, display.sparse_frobenius, steps)
        assert len(scaled) == len(pairs) <= 4 < len(steps)
        assert assert_adjugate_identities(
            ops, [list(row) for row in display.frobenius]) == v

    def test_det_valuation_of_the_pairing(self):
        # J of M(14) holds +-1: two inverses for 28 pivots
        ctx = make_context(5, 2, 16)
        ops = ops_for(ctx)
        display = parse_module_spec("M(14)").build(ctx)
        inverted = self.spy_inv(ops)
        assert det_valuation(ops, display.sparse_pairing) == 0
        assert sorted(inverted) == sorted([ops.one, ops.neg(ops.one)])


# (diagonal block sizes, indices of the all-zero diagonal blocks)
BLOCK_LAYOUTS = [((1, 3), ()), ((2, 2), (1,)), ((3, 1, 2), (0,)),
                 ((1, 2, 1, 2), (2,)), ((2, 1, 3, 1), (1,))]


def permuted_block_matrix(rng, sizes, zero_blocks, entry, zero):
    """Block upper-triangular matrix with the given diagonal block sizes
    (dense diagonal blocks, except the all-zero ones; entries above them
    with density 0.4), conjugated by a random permutation."""
    owner = [b for b, size in enumerate(sizes) for _ in range(size)]
    r = len(owner)

    def pick(i, j):
        bi, bj = owner[i], owner[j]
        if bi == bj:
            return zero if bi in zero_blocks else entry()
        return entry() if bi < bj and rng.random() < 0.4 else zero

    rows = [[pick(i, j) for j in range(r)] for i in range(r)]
    perm = rng.sample(range(r), r)
    return [[rows[perm[i]][perm[j]] for j in range(r)] for i in range(r)]


def block_case(d, layout, seed):
    """(ctx, ops, PadicScalar rows, raw rows) of one permuted block
    matrix over W_6(F_{3^d})."""
    ctx = make_context(3, d, 6)
    ops = ops_for(ctx)
    rng = random.Random(seed)
    entry = (ext_entry(rng, ctx) if d > 1
             else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
    m = permuted_block_matrix(rng, *layout, entry, ctx.zero())
    raw = [[ops.unwrap(e) for e in row] for row in m]
    return ctx, ops, m, raw


def scc_count(ops, raw):
    return len(strongly_connected_components(
        [[j for j, _ in row] for row in sparse_rows(ops, raw)]))


class TestBlockKernels:
    """charpoly and adjugate_action on permuted block upper-triangular
    matrices, which hide the strongly connected components behind a
    random basis order (lane_slope_pairs splits along them: see
    TestSlopePairs)."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    def test_charpoly_against_leibniz(self, layout, d):
        for seed in range(2):
            ctx, ops, m, raw = block_case(d, layout, 10 * seed + d)
            assert scc_count(ops, raw) >= len(layout[0])
            if d == 1:
                assert charpoly(ops, sparse_rows(ops, raw)) == \
                    leibniz_charpoly_int(raw, ctx.q)
            else:
                got = [ops.wrap(c)
                       for c in charpoly(ops, sparse_rows(ops, raw))]
                assert got == leibniz_charpoly_scalar(m, ctx)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    def test_adjugate_both_sides_give_minus_c0(self, layout, d):
        # the zero diagonal blocks make m singular; a diagonal shift keeps
        # the blocks and makes it invertible
        for seed in range(2):
            ctx, ops, m, raw = block_case(d, layout, 10 * seed + d)
            rng = random.Random(seed)
            entry = (ext_entry(rng, ctx) if d > 1
                     else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
            v = assert_adjugate_identities(ops, m)
            assert v == ctx.N or not layout[1]
            assert_adjugate_identities(
                ops, shifted(rng, ctx, m, entry, permute=False))

    def test_sccs_are_listed_sinks_first(self):
        # 0 -> 1 <-> 2 -> 3, and 4 alone
        comps = strongly_connected_components([[1], [2], [1, 3], [], []])
        assert [sorted(c) for c in comps] == [[3], [1, 2], [0], [4]]

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_adjugate_work_linear_in_summands(self, k):
        # N^k is k diagonal 2 x 2 blocks [[0, -1], [p, 0]].  Every pivot is
        # alone in its column of the remaining matrix, so the elimination
        # makes no row operation (no sub), and the back substitution makes
        # one sparse mat-vec per row, over its one row of E: 2k calls of one
        # term each.  v = k, one p per block, below N.
        ctx = make_context(3, 1, 40)
        ops = ops_for(ctx)
        cols = parse_module_spec(f"N^{k}").build(ctx).sparse_frobenius
        calls = count_smatvec(ops)
        subs = []
        ops.sub = lambda a, b: subs.append(None)
        adj = adjugate(ops, cols)
        assert calls == [1] * (2 * k) and not subs
        assert adj[0] == k
        del ops.smatvec, ops.sub
        assert adj == adjugate(ops, cols)


def count_smatvec(ops):
    """Patch ops.smatvec to record one entry per call; returns the record."""
    calls = []
    smatvec = ops.smatvec

    def counting_smatvec(cols, w):
        calls.append(len(w))
        return smatvec(cols, w)

    ops.smatvec = counting_smatvec
    return calls


def hub_matrix(r):
    """r x r integer matrix, one strongly connected component: the last
    index is joined both ways to every other one, and the leading
    (r-1) x (r-1) block holds only the entries (2s, 2s+1), so its square
    is zero.  All nonzero entries are 1 or 2, units mod 3."""
    rows = [[0] * r for _ in range(r)]
    for i in range(r - 1):
        rows[i][r - 1] = 1 + i % 2
        rows[r - 1][i] = 2 - i % 2
    for i in range(0, r - 2, 2):
        rows[i][i + 1] = 2
    return rows


class TestBerkowitzEarlyStop:
    @pytest.mark.parametrize("r", [4, 5, 7, 12])
    def test_krylov_loop_stops_when_the_vector_vanishes(self, r):
        # Every product is one sparse mat-vec.  Bordering steps
        # t = 1 .. r-2 have no entries left of the diagonal in row t, so
        # each is one polynomial update and nothing else.  Step r-1 borders
        # with the hub: C is all of column r-1, A C is supported on the
        # even indices and A^2 C = 0, so it makes two Krylov products and
        # stops, after two row products (R C and R A C), plus its update.
        # (r - 2) + 2 + 2 + 1 = r + 3 calls; running the loop to the end
        # would make 3r - 4.
        # Berkowitz is run on the rows in the order given; charpoly would
        # first reorder the single block.
        ctx = make_context(3, 1, 8)
        ops = ops_for(ctx)
        rows = hub_matrix(r)
        assert scc_count(ops, rows) == 1
        calls = count_smatvec(ops)
        cp = _berkowitz(ops, sparse_rows(ops, rows))[::-1]
        assert len(calls) == r + 3
        del ops.smatvec
        assert cp == charpoly(ops, sparse_rows(ops, rows))
        if r <= 7:
            assert cp == leibniz_charpoly_int(rows, ctx.q)


class TestMatMul:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (5, 5, 5),
                                       (4, 2, 3)])
    def test_against_triple_loop(self, shape, d):
        ctx = make_context(3, d, 6)
        ops = ops_for(ctx)
        rng = random.Random(sum(shape) + 10 * d)
        entry = (ext_entry(rng, ctx) if d > 1
                 else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
        rows, inner, cols = shape

        def matrix(nr, nc):
            return [[entry() if rng.random() < 0.5 else ctx.zero()
                     for _ in range(nc)] for _ in range(nr)]

        a, b = matrix(rows, inner), matrix(inner, cols)
        expected = [[ctx.zero() for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for t in range(inner):
                    expected[i][j] = expected[i][j] + a[i][t] * b[t][j]
        raw_a = [[ops.unwrap(e) for e in row] for row in a]
        raw_b = [[ops.unwrap(e) for e in row] for row in b]
        got = [[ops.wrap(e) for e in row]
               for row in mat_mul(ops, raw_a, raw_b)]
        assert got == expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_columns_and_rows_of_b(self, d):
        ctx = make_context(3, d, 6)
        ops = ops_for(ctx)
        rng = random.Random(90 + d)
        entry = (ext_entry(rng, ctx) if d > 1
                 else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
        z = ctx.zero()
        a = [[entry() for _ in range(4)] for _ in range(3)]
        # column 1 and row 2 of b are zero; b as a whole is 4 x 3
        b = [[entry(), z, entry()], [entry(), z, z], [z, z, z],
             [z, z, entry()]]
        expected = [[sum((a[i][t] * b[t][j] for t in range(4)), z)
                     for j in range(3)] for i in range(3)]
        raw_a = [[ops.unwrap(e) for e in row] for row in a]
        raw_b = [[ops.unwrap(e) for e in row] for row in b]
        got = [[ops.wrap(e) for e in row]
               for row in mat_mul(ops, raw_a, raw_b)]
        assert got == expected
        assert all(row[1] == z for row in got)
        zero_b = [[ops.zero] * 2 for _ in range(4)]
        assert mat_mul(ops, raw_a, zero_b) == [[ops.zero] * 2] * 3


class TestSparseMatVec:
    """ops.smatvec against a dense matrix-vector product on scalars."""

    @staticmethod
    def dense_oracle(ctx, ops, rows, vec):
        out = {}
        for i, row in enumerate(rows):
            acc = ctx.zero()
            for a, b in zip(row, vec):
                acc = acc + a * b
            if acc != ctx.zero():
                out[i] = ops.unwrap(acc)
        return out

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_sparse(self, d):
        ctx = make_context(3, d, 6)
        ops = ops_for(ctx)
        rng = random.Random(31 + d)
        entry = (ext_entry(rng, ctx) if d > 1
                 else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
        for r in (1, 2, 5, 8):
            for density in (0.2, 0.5):
                m = [[ctx.zero() if e is None else e for e in row]
                     for row in sparse_matrix(rng, r, density, entry)]
                vec = [entry() if rng.random() < 0.6 else ctx.zero()
                       for _ in range(r)]
                raw = [[ops.unwrap(e) for e in row] for row in m]
                cols = [[(i, raw[i][j]) for i in range(r)
                         if raw[i][j] != ops.zero] for j in range(r)]
                w = {j: ops.unwrap(x) for j, x in enumerate(vec)
                     if x != ctx.zero()}
                assert (ops.smatvec(cols, w)
                        == self.dense_oracle(ctx, ops, m, vec))

    @pytest.mark.parametrize("d", [1, 2])
    def test_entries_cancelling_to_zero_are_dropped(self, d):
        ctx = make_context(3, d, 6)
        ops = ops_for(ctx)
        a = ctx.from_int(5) if d == 1 else ctx.scalar((5, 7))
        b = ctx.from_int(3) if d == 1 else ctx.scalar((3, 0))
        # row 0: a*b + (-a)*b = 0; row 1: 3^5 * 3 = 0 mod 3^6; row 2: a*b
        m = [[a, -a], [ctx.from_int(3 ** 5), ctx.zero()], [a, ctx.zero()]]
        vec = [b, b]
        cols = [[(i, ops.unwrap(m[i][j])) for i in range(3)
                 if m[i][j] != ctx.zero()] for j in range(2)]
        got = ops.smatvec(cols, {0: ops.unwrap(b), 1: ops.unwrap(b)})
        assert got == self.dense_oracle(ctx, ops, m, vec)
        assert set(got) == {2}

    def test_empty_vector(self):
        ops = ops_for(make_context(3, 2, 6))
        assert ops.smatvec([[(0, (1, 0))]], {}) == {}


def nilpotent_matrices(ctx, rng, entry):
    """Strictly upper triangular matrices under a random basis order, and
    the 2 x 2 single-component nilpotent [[a, a], [-a, -a]]."""
    out = []
    for r in (3, 5):
        rows = [[entry() if j > i and rng.random() < 0.6 else ctx.zero()
                 for j in range(r)] for i in range(r)]
        perm = rng.sample(range(r), r)
        out.append([[rows[perm[i]][perm[j]] for j in range(r)]
                    for i in range(r)])
    a = entry()
    out.append([[a, a], [-a, -a]])
    return out


def monomial_matrices(ctx, rng, entry):
    """Random permutation matrices and monomial matrices whose entries are
    units times powers of p, including one with a fixed point."""
    out = []
    for r, scaled in ((4, False), (5, True), (6, True)):
        perm = rng.sample(range(r), r)
        if r == 5:
            perm[perm.index(0)], perm[0] = perm[0], 0
        out.append([[(entry() * ctx.from_int(ctx.p ** rng.randrange(3))
                      if scaled else ctx.one())
                     if j == perm[i] else ctx.zero()
                     for j in range(r)] for i in range(r)])
    return out


def structured_cases(d):
    """(ctx, name, PadicScalar rows) for the structured matrix families."""
    ctx = make_context(3, d, 6)
    rng = random.Random(77 + d)
    entry = (ext_entry(rng, ctx) if d > 1
             else lambda: ctx.from_int(rng.randrange(1, ctx.q)))
    cases = [("one_by_one", [[entry()]]),
             ("one_by_one_zero", [[ctx.zero()]]),
             ("zero", [[ctx.zero()] * 3 for _ in range(3)])]
    cases += [("nilpotent", m) for m in nilpotent_matrices(ctx, rng, entry)]
    cases += [("monomial", m) for m in monomial_matrices(ctx, rng, entry)]
    for m in (2, 3):
        display = parse_module_spec(f"M({m})").build(ctx)
        cases.append(("M(2h)", [list(row) for row in display.frobenius]))
    return ctx, cases


class TestStructuredMatrices:
    """charpoly and adjugate_action on nilpotent, permutation, monomial,
    1 x 1 and zero matrices, against the Leibniz expansion and
    M * B = B * M = -c0 * I."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_charpoly_against_leibniz(self, d):
        ctx, cases = structured_cases(d)
        ops = ops_for(ctx)
        for name, m in cases:
            raw = [[ops.unwrap(e) for e in row] for row in m]
            got = [ops.wrap(c) for c in charpoly(ops, sparse_rows(ops, raw))]
            assert got == leibniz_charpoly_scalar(m, ctx), name

    @pytest.mark.parametrize("d", [1, 2])
    def test_adjugate_both_sides_give_minus_c0(self, d):
        ctx, cases = structured_cases(d)
        ops = ops_for(ctx)
        singular = {"one_by_one_zero", "zero", "nilpotent"}
        for name, m in cases:
            v = assert_adjugate_identities(ops, m)
            assert v == ctx.N or name not in singular, name

    def test_zero_and_one_by_one_exactly(self):
        ctx = make_context(3, 1, 6)
        ops = ops_for(ctx)
        assert charpoly(ops, sparse_rows(
            ops, [[0] * 3 for _ in range(3)])) == [0, 0, 0, 1]
        assert adjugate(ops, [[], [], []]) == (6, None)
        assert charpoly(ops, sparse_rows(ops, [[7]])) == [ctx.q - 7, 1]
        assert adjugate(ops, [[(0, 7)]]) == (
            0, [[(0, pow(7, -1, ctx.q))]])
        # p^2 * 9^(-1) = 1, and 3^6 reads as 0
        assert adjugate(ops, [[(0, 9)]]) == (2, [[(0, 1)]])
        assert adjugate(ops, [[(0, 3 ** 6 % ctx.q)]]) == (6, None)


class TestCharpolyReduction:
    """The twisted charpoly at 2N, reduced mod p^N, is the one at N."""

    @pytest.mark.parametrize("n,p,d", [(6, 3, 1), (5, 3, 2), (4, 3, 3)])
    def test_deformation_displays(self, n, p, d):
        ctx = make_context(p, d, 4 * n * d + 8)
        ctx2 = ctx.at_precision(2 * ctx.N)
        ops, ops2 = ops_for(ctx), ops_for(ctx2)
        rng = random.Random(n * 100 + d)
        for _ in range(3):
            ints = tuple(rng.randrange(p ** d) for _ in range(n - 1))
            display = deformation_display(
                ctx, DeformationPoint.from_ints(ctx, n, ints))
            cols = display.sparse_frobenius
            at_n = charpoly(ops, twisted_product(
                ops, twisted_factors(ops, cols, d)))
            at_2n = charpoly(ops2, twisted_product(
                ops2, twisted_factors(ops2, cols, d)))
            assert [ops.truncate(c) for c in at_2n] == at_n


class TestTwistedProduct:
    def test_trivial_for_d_one(self):
        ctx = make_context(3, 1, 8)
        ops = ops_for(ctx)
        rows = [[1, 2], [3, 4]]
        srows = sparse_rows(ops, rows)
        assert twisted_product(ops, twisted_factors(
            ops, sparse_transpose(srows, 2), 1)) == srows

    def test_matches_manual_twist(self):
        ctx = make_context(3, 2, 6)
        ops = ops_for(ctx)
        rng = random.Random(5)
        rows = [[(rng.randrange(ctx.q), rng.randrange(ctx.q))
                 for _ in range(3)] for _ in range(3)]
        twisted = [[ops.frob(e, 1) for e in row] for row in rows]
        cols = sparse_transpose(sparse_rows(ops, rows), 3)
        assert twisted_product(ops, twisted_factors(ops, cols, 2)) == \
            sparse_rows(ops, mat_mul(ops, rows, twisted))


class TestSparseTwistedProduct:
    """twisted_product on sparse columns against dense scalar products."""

    @pytest.mark.parametrize("p,d", [(3, 2), (2, 3), (3, 3), (2, 4)])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 6])
    def test_against_dense_chain(self, p, d, r):
        ctx = make_context(p, d, 9)
        ops = ops_for(ctx)
        rng = random.Random(100 * p + 10 * d + r)

        def entry():
            coords = (0,) * d
            while not any(coords):
                # units and multiples of p alike
                coords = tuple(rng.randrange(ctx.q) * p ** rng.randrange(2)
                               for _ in range(d))
            return ctx.scalar(coords)

        for density in (0.0, 0.2, 0.5, 1.0):
            m = [[ctx.zero() if e is None else e for e in row]
                 for row in sparse_matrix(rng, r, density, entry)]
            raw = [[ops.unwrap(e) for e in row] for row in m]
            cols = sparse_transpose(sparse_rows(ops, raw), r)
            expected = [[ops.unwrap(e) for e in row]
                        for row in twisted_product_dense(m, d)]
            assert twisted_product(ops, twisted_factors(ops, cols, d)) == \
                sparse_rows(ops, expected), density


class TestLowerHull:
    def test_basic(self):
        pts = [(0, 2), (1, 5), (2, 0), (3, 5), (4, 0)]
        assert lower_hull(pts) == [(0, 2), (2, 0), (4, 0)]

    def test_collinear_points_collapse(self):
        pts = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        assert lower_hull(pts) == [(0, 4), (4, 0)]

    def test_single_point(self):
        assert lower_hull([(0, 1)]) == [(0, 1)]


def companion(ops, cp):
    """Sparse rows of the companion matrix of the monic cp, low degree
    first: ones below the diagonal and -cp[i] in the last column, so
    det(xI - C) = cp."""
    r = len(cp) - 1
    rows = [[(i - 1, ops.one)] if i else [] for i in range(r)]
    for i, c in enumerate(cp[:-1]):
        if c != ops.zero:
            rows[i].append((r - 1, ops.neg(c)))
    return rows


def one_lane_pairs(ops, srows, twist, scale):
    """lane_slope_pairs of the matrix with the given sparse rows as the
    one lane of a batch: its pairs, or None when they are not certified
    (its certificate term reaches N)."""
    lops = _LaneOps(ops, 1, len(srows))
    [(pairs, term)] = lane_slope_pairs(
        lops, lops.packed([[(j, (a,)) for j, a in row] for row in srows]),
        twist, scale)
    return pairs if term < ops.cap else None


def lane_polygon(ops, srows, twist, scale):
    pairs = one_lane_pairs(ops, srows, twist, scale)
    return None if pairs is None else NewtonPolygon(pairs)


def unsplit_polygon(ops, srows, twist, scale):
    """What lane_polygon should give: the hull oracle on the valuations of
    the unsplit charpoly, each point (i, v) moved to (sx * i, sy * v), or
    None when the oracle raises PrecisionError.  The degrees a stretch
    leaves out read sy * N, above any hull that passes: the odd
    coefficients of h(t^2) are 0, and those of h * sigma(h) lie on or
    above the Minkowski sum of the two hulls."""
    (sx, sy), cap = scale, ops.cap
    vals = [sy * cap] * (sx * len(srows) + 1)
    for i, c in enumerate(charpoly(ops, srows)):
        vals[sx * i] = sy * ops.val(c)
    try:
        return NewtonPolygon(certified_slope_pairs_oracle(vals, cap, twist))
    except PrecisionError:
        return None


def block_product(ops, srows):
    """The product of the charpolys of the diagonal blocks of the SCC
    order, as scalars, by schoolbook products."""
    ctx = ops.ctx
    out = [ctx.one()]
    for block in _blocks(srows):
        factor = [ops.wrap(c) for c in charpoly(ops, _restrict(srows, block))]
        prod = [ctx.zero()] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] = prod[i + j] + a * b
        out = prod
    return out


def valued_entry(rng, ctx):
    """Nonzero scalars of valuation 0, 1 or 2 (or more, when the random
    unit part is divisible by p)."""
    def entry():
        while True:
            e = ctx.scalar(tuple(
                rng.randrange(ctx.q) * ctx.p ** rng.randrange(3) % ctx.q
                for _ in range(ctx.d)))
            if not e.is_zero():
                return e
    return entry


class TestSlopePairs:
    """lane_slope_pairs at width 1 against the hull oracle on the unsplit
    charpoly: the same polygon, or no certificate on either side.  The
    named cases are companion matrices of the given polynomials."""

    @staticmethod
    def pairs(ops, cp, twist, scale=(1, 1)):
        srows = companion(ops, cp)
        assert charpoly(ops, srows) == cp
        pairs = one_lane_pairs(ops, srows, twist, scale)
        assert NewtonPolygon(pairs) == unsplit_polygon(ops, srows, twist,
                                                       scale)
        return pairs

    def test_x_squared_plus_p(self):
        ops = ops_for(make_context(3, 1, 8))
        # x^2 + 3: both roots have valuation 1/2
        assert self.pairs(ops, [3, 0, 1], 1) == [(Fraction(1, 2), 2)]

    def test_split_slopes(self):
        ctx = make_context(3, 1, 8)
        ops = ops_for(ctx)
        # (x^2 - 1)(x^2 - 9) = x^4 - 10x^2 + 9
        cp = [9, 0, (-10) % ctx.q, 0, 1]
        assert sorted(self.pairs(ops, cp, 1)) == [(Fraction(0), 2),
                                                  (Fraction(1), 2)]

    def test_twist_divides_slopes(self):
        ops = ops_for(make_context(3, 1, 8))
        assert self.pairs(ops, [9, 0, 1], 2) == [(Fraction(1, 2), 2)]
        # h(t^2) and h * sigma(h) for h = x^2 + 9
        assert self.pairs(ops, [9, 0, 1], 2, (2, 1)) == [(Fraction(1, 4), 4)]
        assert self.pairs(ops, [9, 0, 1], 2, (2, 2)) == [(Fraction(1, 2), 4)]

    def test_insufficient_precision(self):
        ctx = make_context(3, 1, 2)
        ops = ops_for(ctx)
        # constant term indistinguishable from 0 at N = 2; the companion
        # matrix then splits into two zero blocks
        srows = companion(ops, [9 % ctx.q, 0, 1])
        assert len(_blocks(srows)) == 2
        assert one_lane_pairs(ops, srows, 1, (1, 1)) is None
        assert unsplit_polygon(ops, srows, 1, (1, 1)) is None

    @pytest.mark.parametrize("scale", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_permuted_block_matrices(self, d, scale):
        """Random permuted block-triangular matrices, drawn once at
        precision 12 and read at N = 2, 3, 4, 6, 9: sy * val c_0 falls
        below, at and above N.  The blocks' charpolys multiply to the
        unsplit one."""
        hi = make_context(3, d, 12)
        ops_hi = ops_for(hi)
        sides = set()
        # each layout as it is, and with no all-zero diagonal block
        layouts = BLOCK_LAYOUTS + [(sizes, ()) for sizes, _ in BLOCK_LAYOUTS]
        for seed, layout in enumerate(layouts):
            rng = random.Random(100 * d + seed)
            m = permuted_block_matrix(rng, *layout, valued_entry(rng, hi),
                                      hi.zero())
            raw = [[ops_hi.unwrap(e) for e in row] for row in m]
            v0 = ops_hi.val(charpoly(ops_hi, sparse_rows(ops_hi, raw))[0])
            for N in (2, 3, 4, 6, 9):
                ops = ops_for(make_context(3, d, N))
                srows = sparse_rows(ops, [[ops.truncate(a) for a in row]
                                          for row in raw])
                assert len(_blocks(srows)) >= len(layout[0])
                assert block_product(ops, srows) == \
                    [ops.wrap(c) for c in charpoly(ops, srows)]
                got = lane_polygon(ops, srows, d, scale)
                assert got == unsplit_polygon(ops, srows, d, scale), (seed, N)
                sides.add((scale[1] * v0 > N) - (scale[1] * v0 < N))
        assert sides == {-1, 0, 1}
