"""Sparse raw storage of displays against dense constructions.

Every display here is also built entry by entry as dense matrices of
scalars and passed through the public constructor; the deformation
relations are written out again from the deformation_display docstring, so
the template in displayzoo is checked against an independent reading.
"""

import json
import random

import pytest

from gustrata import (DeformationPoint, DieudonneDisplay, PrecisionError,
                      a_number, build_graph, default_precision,
                      deformation_display, direct_sum, display_from_json,
                      expected_module, make_context, module_M, module_N,
                      parse_module_spec, polarization_check, signature,
                      supersingular_module, validate_display)
from gustrata import _linalg, fcrystal
from gustrata._linalg import ops_for
from gustrata.fcrystal import U, V, _basis_halves, _lane_columns
from gustrata.wittring import PadicScalar


def ctx_for(n, p=3, d=1):
    return make_context(p, d, default_precision(n, d))


def dense_deformation(ctx, point):
    """(labels, columns, pairing) of the deformation family at point, as
    dense lists of scalars; columns[j][i] is the v_i-coefficient of F e_j."""
    n, p = point.n, ctx.p
    s = {i: ctx.teichmuller(v) for i, v in zip(point.indices, point.values)}
    m = n if n % 2 else n - 1
    labels = [U(i) for i in range(1, m + 1)] + [V(i) for i in range(1, m + 1)]
    F = {(U(1), V(m)): -1, (U(2), V(1)): p, (U(2), V(m)): p * s[m],
         (V(1), U(m)): p, (V(1), U(1)): -p * s[m], (V(2), U(1)): 1}
    for j in range(2, m):
        F[(U(2), V(j))] = (-1) ** j * p * s[j]
    for k in range(3, m + 1):
        F[(U(k), V(k - 1))] = p
        F[(V(k), U(k - 1))] = 1
        F[(V(k), U(1))] = s[k - 1]
    J = {}
    for i in range(1, m + 1):
        J[(U(i), V(i))] = (-1) ** i
        J[(V(i), U(i))] = -(-1) ** i
    if n % 2 == 0:
        labels += [U(0), V(0)]
        F[(U(2), V(0))] = p * s[0]
        F[(U(0), V(0))] = p
        F[(V(0), U(0))] = -1
        F[(V(0), U(1))] = -s[0]
        J[(U(0), V(0))] = 1
        J[(V(0), U(0))] = -1
    return labels, _dense(ctx, labels, F), _dense(ctx, labels, J)


def _dense(ctx, labels, entries):
    """out[index of a][index of b] = entries[(a, b)], zero elsewhere."""
    idx = {lab: k for k, lab in enumerate(labels)}
    r = len(labels)
    out = [[ctx.zero() for _ in range(r)] for _ in range(r)]
    for (a, b), c in entries.items():
        if not isinstance(c, PadicScalar):
            c = ctx.from_int(c)
        out[idx[a]][idx[b]] = c
    return out


def dense_edges(labels, columns):
    return [(labels[j], labels[i], e.valuation())
            for j, col in enumerate(columns) for i, e in enumerate(col)
            if not e.is_zero()]


def dense_alternating_failures(pairing):
    r = len(pairing)
    bad = []
    for i in range(r):
        if not pairing[i][i].is_zero():
            bad.append((i, i))
        for j in range(i + 1, r):
            if not (pairing[i][j] + pairing[j][i]).is_zero():
                bad.append((i, j))
    return bad


def dense_grading_failures(labels, columns):
    r = len(labels)
    return [(i, j) for i in range(r) for j in range(r)
            if labels[i].family == labels[j].family
            and not columns[j][i].is_zero()]


def points(ctx, n, count, seed):
    rng = random.Random(seed)
    q = ctx.p ** ctx.d
    yield (0,) * (n - 1)
    for _ in range(count):
        yield tuple(rng.randrange(q) for _ in range(n - 1))


CASES = [(n, p, d) for n in range(3, 10) for p in (3, 5) for d in (1, 2, 3)]


@pytest.mark.parametrize("d", [1, 2])
def test_deformation_at_precision_one_leaves_out_p_entries(d):
    """At N = 1 every p entry vanishes: the template's constant entries,
    scaled once, leave them out as the dense builder's zeros do.  A second,
    equal context reuses the template of the first and gives the same
    display, which keeps its own context."""
    for n in (4, 5):
        ctx, other = make_context(3, d, 1), make_context(3, d, 1)
        assert ctx is not other and ctx == other
        for ints in points(ctx, n, 3, seed=7 * n + d):
            point = DeformationPoint.from_ints(ctx, n, ints)
            D = deformation_display(ctx, point)
            labels, columns, pairing = dense_deformation(ctx, point)
            assert D == DieudonneDisplay(ctx, labels, columns, pairing)
            twin = deformation_display(
                other, DeformationPoint.from_ints(other, n, ints))
            assert twin == D and twin._ops().ctx is twin.ctx is other


@pytest.mark.parametrize("n,p,d", CASES)
def test_deformation_matches_dense_builder(n, p, d):
    ctx = ctx_for(n, p, d)
    ops = ops_for(ctx)
    for ints in points(ctx, n, 2, seed=1000 * n + 10 * p + d):
        point = DeformationPoint.from_ints(ctx, n, ints)
        D = deformation_display(ctx, point)
        labels, columns, pairing = dense_deformation(ctx, point)
        dense = DieudonneDisplay(ctx, labels, columns, pairing)
        assert D == dense, ints
        assert json.dumps(D.to_json()) == json.dumps(dense.to_json())
        r = len(labels)
        assert all(D.frobenius[i][j] == columns[j][i]
                   for i in range(r) for j in range(r))
        assert D.pairing == tuple(map(tuple, pairing))
        assert list(build_graph(D).edges) == dense_edges(labels, columns)
        assert display_from_json(json.loads(json.dumps(D.to_json()))) == D
        # storage is canonical: indices ascending, no zero, reduced raw
        zero = (0,) * d if d > 1 else 0
        # the family is graded: X = A[U][V] and Y = A[V][U], rows and
        # columns numbered within their family, as the one-lane columns
        # newton_slopes reads
        uu = [i for i, b in enumerate(labels) if b.family == "u"]
        vv = [i for i, b in enumerate(labels) if b.family == "v"]
        assert all(labels[i].family != labels[j].family
                   for j in range(r) for i in range(r)
                   if ops.unwrap(columns[j][i]) != zero)
        assert [_lane_columns([D], idx, pos)
                for idx, pos in _basis_halves(D.basis)] == [
            [[(t, (a,)) for t, i in enumerate(rows)
              if (a := ops.unwrap(columns[j][i])) != zero] for j in cols]
            for cols, rows in ((vv, uu), (uu, vv))]
        for lines in (D.sparse_frobenius, D.sparse_pairing):
            for line in lines:
                assert [k for k, _ in line] == sorted({k for k, _ in line})
                assert all(a != zero for _, a in line)


@pytest.mark.parametrize("d", [1, 2])
def test_integer_builders_drop_zeros_at_precision_one(d):
    # at N = 1 the coefficient p of F u_k is 0
    ctx = make_context(3, d, 1)
    for D in (module_N(ctx), module_M(ctx, 3),
              deformation_display(ctx, DeformationPoint.from_ints(
                  ctx, 4, (1, 2, 0)))):
        r = D.rank
        columns = [[D.frobenius[i][j] for i in range(r)] for j in range(r)]
        assert D == DieudonneDisplay(ctx, D.basis, columns, D.pairing)
        assert len(build_graph(D).edges) == sum(
            not e.is_zero() for col in columns for e in col)


def test_views_are_immutable_tuples():
    ctx = ctx_for(6)
    D = deformation_display(ctx, DeformationPoint.from_ints(
        ctx, 6, (1, 2, 0, 1, 2)))
    for view in (D.frobenius, D.pairing, D.sparse_frobenius,
                 D.sparse_pairing):
        assert isinstance(view, tuple)
        assert all(isinstance(row, tuple) for row in view)
    assert D.frobenius is D.frobenius
    with pytest.raises(TypeError):
        D.frobenius[0][0] = ctx.one()
    with pytest.raises(TypeError):
        D.pairing[0] = ()
    with pytest.raises(AttributeError):
        D.frobenius = ()
    with pytest.raises(AttributeError):
        D.pairing = ()


@pytest.mark.parametrize("d", [1, 2])
def test_direct_sum_is_dense_block_placement(d):
    ctx = ctx_for(7, d=d)
    q = ctx.p ** d
    inner = direct_sum(module_M(ctx, 3), module_N(ctx))
    parts = [module_N(ctx),
             deformation_display(ctx, DeformationPoint.from_ints(
                 ctx, 4, (1, q - 1, 2 % q))),
             inner, module_M(ctx, 2)]
    S = direct_sum(*parts)
    r = sum(D.rank for D in parts)
    zero = ctx.zero()
    columns = [[zero] * r for _ in range(r)]
    pairing = [[zero] * r for _ in range(r)]
    off = 0
    for D in parts:
        for i in range(D.rank):
            for j in range(D.rank):
                columns[off + j][off + i] = D.frobenius[i][j]
                pairing[off + i][off + j] = D.pairing[i][j]
        off += D.rank
    assert S == DieudonneDisplay(ctx, S.basis, columns, pairing)
    assert len(S.summands) == 5  # the nested sum contributes its two parts
    assert display_from_json(S.to_json()) == S


# The zoo builders against dense twins.  A twin is written out here from
# the docstring relations as integer entries and built through the public
# constructor; a sum's twin bumps colliding labels to the smallest free
# index of their family, places the blocks, and records the summands and
# the parts (leaf twins by identity, with counts) by the rules of the
# direct_sum docstring.  Nothing of a twin comes from displayzoo.


class Twin:
    """F[(a, b)] is the b-coefficient of F a and J[(a, b)] = <a, b>, as
    integers; display is built from them densely."""

    def __init__(self, ctx, basis, F, J, summands=None, parts=None):
        self.basis, self.F, self.J = tuple(basis), F, J
        self.summands, self.parts = summands, parts
        self.display = DieudonneDisplay(
            ctx, basis, _dense(ctx, basis, F), _dense(ctx, basis, J),
            summands)


def twin_N(ctx):
    # F v0 = -u0, F u0 = p v0, <u0, v0> = 1 = -<v0, u0>
    return Twin(ctx, [U(0), V(0)],
                {(V(0), U(0)): -1, (U(0), V(0)): ctx.p},
                {(U(0), V(0)): 1, (V(0), U(0)): -1})


def twin_M(ctx, m):
    # F u_1 = (-1)^m v_m, F v_1 = p u_m, F v_k = u_{k-1}, F u_k = p v_{k-1}
    # (k >= 2), <u_i, v_i> = (-1)^i = -<v_i, u_i>
    F = {(U(1), V(m)): (-1) ** m, (V(1), U(m)): ctx.p}
    J = {}
    for k in range(2, m + 1):
        F[(V(k), U(k - 1))] = 1
        F[(U(k), V(k - 1))] = ctx.p
    for i in range(1, m + 1):
        J[(U(i), V(i))] = (-1) ** i
        J[(V(i), U(i))] = -(-1) ** i
    return Twin(ctx, [U(i) for i in range(1, m + 1)]
                + [V(i) for i in range(1, m + 1)], F, J)


def twin_sum(ctx, *children):
    used = {"u": set(), "v": set()}
    basis, F, J, summands, parts = [], {}, {}, [], {}
    for child in children:
        rename = {}
        for lab in child.basis:
            taken = used[lab.family]
            idx = lab.index
            if idx in taken:
                idx = min(set(range(len(taken) + 1)) - taken)
            taken.add(idx)
            rename[lab] = (U if lab.family == "u" else V)(idx)
            basis.append(rename[lab])
        for ours, theirs in ((F, child.F), (J, child.J)):
            ours.update({(rename[a], rename[b]): c
                         for (a, b), c in theirs.items()})
        if child.summands is None:
            summands.append(tuple((str(a), str(rename[a]))
                                  for a in child.basis))
        else:
            summands.extend(child.summands)
        for leaf, count in child.parts or ((child, 1),):
            parts.setdefault(id(leaf), [leaf, 0])[1] += count
    return Twin(ctx, basis, F, J, tuple(summands),
                tuple(tuple(entry) for entry in parts.values()))


def twin_ss(ctx, n):
    # M(n) for odd n, M(n - 1) + N for even n
    if n % 2:
        return twin_M(ctx, n)
    return twin_sum(ctx, twin_M(ctx, n - 1), twin_N(ctx))


def assert_twin(D, twin):
    assert D == twin.display
    assert D.basis == twin.display.basis
    assert D.summands == twin.summands == twin.display.summands
    assert D.parts == (None if twin.parts is None else tuple(
        (leaf.display, count) for leaf, count in twin.parts))


ZOO_CONTEXTS = [(p, d, N) for d in (1, 2, 3) for N in (1, None)
                for p in (2, 3)]


def zoo_context(p, d, N):
    return make_context(p, d, N or default_precision(9, d))


@pytest.mark.parametrize("p,d,N", ZOO_CONTEXTS)
def test_module_M_and_N_match_twins(p, d, N):
    # m = 2..9 gives F u_1 = +v_m and -v_m; at N = 1 the p entries vanish
    ctx = zoo_context(p, d, N)
    assert_twin(module_N(ctx), twin_N(ctx))
    for m in range(2, 10):
        assert_twin(module_M(ctx, m), twin_M(ctx, m))


@pytest.mark.parametrize("p,d,N", ZOO_CONTEXTS)
def test_supersingular_and_expected_modules_match_twins(p, d, N):
    ctx = zoo_context(p, d, N)
    for n in range(3, 10):
        assert_twin(supersingular_module(ctx, n), twin_ss(ctx, n))
        for j in range(1, n // 2 + 1):
            # M(2(floor(n/2)+1-j)) + N^r, each N its own display
            m = 2 * (n // 2 + 1 - j)
            twin = (twin_M(ctx, m) if m == n else twin_sum(
                ctx, twin_M(ctx, m), *(twin_N(ctx) for _ in range(n - m))))
            assert_twin(expected_module(ctx, n, j), twin)


@pytest.mark.parametrize("p,d,N", ZOO_CONTEXTS)
def test_sums_match_twins(p, d, N):
    ctx = zoo_context(p, d, N)
    n, m3 = module_N(ctx), module_M(ctx, 3)
    tn, tm3 = twin_N(ctx), twin_M(ctx, 3)
    inner, tinner = direct_sum(m3, n), twin_sum(ctx, tm3, tn)
    pair, tpair = direct_sum(n, n), twin_sum(ctx, tn, tn)
    cases = [
        # one object repeated, in one family pair and in both families
        (direct_sum(n, n, n), twin_sum(ctx, tn, tn, tn)),
        (direct_sum(m3, n, m3), twin_sum(ctx, tm3, tn, tm3)),
        # nested sums, one of them repeated
        (direct_sum(inner, n, supersingular_module(ctx, 6)),
         twin_sum(ctx, tinner, tn, twin_ss(ctx, 6))),
        (direct_sum(pair, n, pair), twin_sum(ctx, tpair, tn, tpair)),
        # equal displays that are distinct objects
        (direct_sum(module_N(ctx), module_N(ctx), module_M(ctx, 2),
                    module_M(ctx, 2)),
         twin_sum(ctx, twin_N(ctx), twin_N(ctx), twin_M(ctx, 2),
                  twin_M(ctx, 2))),
        # module specs build each distinct term once
        (parse_module_spec("M(7)+M(3)+N^2").build(ctx),
         twin_sum(ctx, twin_M(ctx, 7), tm3, tn, tn)),
        (parse_module_spec("ss(8)+N").build(ctx),
         twin_sum(ctx, twin_ss(ctx, 8), tn)),
    ]
    for D, twin in cases:
        assert_twin(D, twin)


BROKEN_REPORTS = {
    "flipped_pairing": [("pairing_alternating", ["entry (0,2)"])],
    "grading": [("grading_block_antidiagonal", ["entry (0,0)"])],
    "singular": [("frobenius_invertible",
                  ["V not computable at this precision"]),
                 ("verschiebung_integral",
                  ["skipped: V not computable at this precision"])],
    "broken_sign": [],
    # A[0][1] = 1, A[1][0] = 9: val det = 2, and p A^(-1) has 1/3 at (0,1)
    "non_integral": [("verschiebung_integral",
                      ["entry (0,1) valuation 0 < 1"])],
    # A[0][1] = A[1][0] = 3^11 at N = 12: det = -3^22 reads as 0
    "singular_nonzero": [("frobenius_invertible",
                          ["V not computable at this precision"]),
                         ("verschiebung_integral",
                          ["skipped: V not computable at this precision"])],
    # J = [[0, 3], [-3, 0]] on the basis of N
    "pairing_p": [("pairing_unimodular", ["val det J = 2"])],
    # J = 3^6 J_0 at N = 12: det J = 3^12 reads as 0
    "pairing_capped": [("pairing_unimodular", ["val det J = 12"])],
    # M(2) at d = 2, pairs scaled by 3(1 + x) and 9x: 2 * 1 + 2 * 2
    "pairing_d2": [("pairing_unimodular", ["val det J = 6"])],
}

# (module, d, coordinates of the factor on each u_k/v_k pair of J, by k):
# scaling J[u_k][v_k] and J[v_k][u_k] alike keeps J alternating
PAIRING_SCALES = {
    "pairing_p": ("N", 1, {0: (3,)}),
    "pairing_capped": ("N", 1, {0: (3 ** 6,)}),
    "pairing_d2": ("M(2)", 2, {1: (3, 3), 2: (0, 9)}),
}


def broken_display(kind):
    """The broken displays of tests/test_fcrystal.py, and two rank-2
    displays on the basis of N at p = 3, N = 12 whose F is [[0, a], [b, 0]]
    with a nonzero determinant: non-integral p A^(-1), or a determinant
    below the precision; and N or M(2) with J scaled as in PAIRING_SCALES."""
    if kind in PAIRING_SCALES:
        spec, d, scales = PAIRING_SCALES[kind]
        ctx = ctx_for(1, d=d)
        good = parse_module_spec(spec).build(ctx)
        pairing = [[e * ctx.scalar(scales[good.basis[i].index]) for e in row]
                   for i, row in enumerate(good.pairing)]
        return DieudonneDisplay(ctx, good.basis,
                                [list(col) for col in zip(*good.frobenius)],
                                pairing)
    ctx = ctx_for(1 if kind in ("broken_sign", "non_integral",
                                "singular_nonzero") else 2)
    good = module_M(ctx, 2) if kind == "flipped_pairing" else module_N(ctx)
    r = good.rank
    cols = [[good.frobenius[i][j] for i in range(r)] for j in range(r)]
    pairing = [list(row) for row in good.pairing]
    if kind == "flipped_pairing":
        for i, a in enumerate(good.basis):
            for j, b in enumerate(good.basis):
                if (a.family, b.family) == ("u", "v") and a.index == b.index:
                    pairing[i][j] = ctx.one()
    elif kind == "grading":
        cols[0][0] = ctx.one()
    elif kind == "singular":
        cols = [[ctx.zero()] * 2 for _ in range(2)]
    elif kind in ("non_integral", "singular_nonzero"):
        a, b = (1, 9) if kind == "non_integral" else (3 ** 11, 3 ** 11)
        cols = [[ctx.zero(), ctx.from_int(b)], [ctx.from_int(a), ctx.zero()]]
    else:
        cols[1][0] = ctx.one()
    return DieudonneDisplay(ctx, good.basis, cols, pairing)


@pytest.mark.parametrize("kind", sorted(BROKEN_REPORTS))
def test_validation_failures_unchanged(kind):
    report = validate_display(broken_display(kind))
    assert [(c.name, list(c.details)) for c in report.failed()] == \
        BROKEN_REPORTS[kind]
    if kind == "broken_sign":
        assert [(str(a), str(b), s.coords)
                for a, b, s in polarization_check(broken_display(kind))] == \
            [("u0", "u0", (177141,)), ("v0", "v0", (2,))]
    if kind in ("non_integral", "singular_nonzero"):
        display = broken_display(kind)
        assert display.ctx.N == 12
        error, text = ((ValueError, "p*A^(-1) is not integral (first "
                                    "offending entry (0, 1))")
                       if kind == "non_integral" else
                       (PrecisionError, "V not computable at this precision"))
        # each consumer on the same display, then on a fresh one, so no
        # cache left by another consumer decides the outcome
        for consumer in (lambda D: D._verschiebung(), a_number, signature):
            for D in (display, broken_display(kind)):
                with pytest.raises(error) as info:
                    consumer(D)
                assert str(info.value) == text


@pytest.mark.parametrize("seed", range(24))
def test_validation_failures_match_dense_scan(seed):
    rng = random.Random(seed)
    n, d = rng.choice([(3, 1), (4, 1), (5, 2), (6, 1)])
    ctx = ctx_for(n, d=d)
    point = DeformationPoint.from_ints(ctx, n, tuple(
        rng.randrange(ctx.p ** d) for _ in range(n - 1)))
    labels, columns, pairing = dense_deformation(ctx, point)
    r = len(labels)
    for _ in range(rng.randrange(3, 12)):
        i, j = rng.randrange(r), rng.randrange(r)
        entry = ctx.scalar([rng.randrange(3) for _ in range(d)])
        if rng.random() < 0.5:
            columns[j][i] = entry
        else:
            pairing[i][i if rng.random() < 0.3 else j] = entry
    report = validate_display(DieudonneDisplay(ctx, labels, columns,
                                               pairing))
    details = {c.name: list(c.details) for c in report.checks}
    assert details["pairing_alternating"] == [
        f"entry ({i},{j})" for i, j in dense_alternating_failures(pairing)[:8]]
    assert details["grading_block_antidiagonal"] == [
        f"entry ({i},{j})"
        for i, j in dense_grading_failures(labels, columns)[:8]]


def test_alternation_diagonal_at_p2():
    # at p = 2 a diagonal entry 2^(N-1) has J_ii + J_ii = 0 mod 2^N, so only
    # the diagonal test itself reports it
    ctx = ctx_for(3, p=2)
    labels, columns, pairing = dense_deformation(
        ctx, DeformationPoint.from_ints(ctx, 3, (1, 0)))
    pairing[1][1] = ctx.from_int(2 ** (ctx.N - 1))
    report = validate_display(DieudonneDisplay(ctx, labels, columns,
                                               pairing))
    assert dense_alternating_failures(pairing) == [(1, 1)]
    assert [(c.name, c.details) for c in report.failed()] == \
        [("pairing_alternating", ("entry (1,1)",))]


def dense_polarization(D):
    """<F e_i, e_j> - sigma(<e_i, V e_j>) over all (i, j), densely, at the
    precision of V."""
    ctx_v, vmat = D.verschiebung_matrix()
    r = D.rank
    A = [[ctx_v.scalar(e.coords) for e in row] for row in D.frobenius]
    J = [[ctx_v.scalar(e.coords) for e in row] for row in D.pairing]
    out = []
    for i in range(r):
        for j in range(r):
            lhs = sum((A[k][i] * J[k][j] for k in range(r)), ctx_v.zero())
            rhs = sum((J[i][k] * vmat[k][j] for k in range(r)), ctx_v.zero())
            diff = lhs - rhs.frobenius()
            if not diff.is_zero():
                out.append((D.basis[i], D.basis[j], diff))
    return out


@pytest.mark.parametrize("n,d", [(5, 1), (6, 1), (4, 2), (5, 2)])
@pytest.mark.parametrize("a,b", [(U(2), V(2)), (U(1), U(3)), (V(1), V(3))])
def test_polarization_check_wrong_pairing_entry(n, d, a, b):
    ctx = ctx_for(n, d=d)
    point = DeformationPoint.from_ints(ctx, n, tuple(
        (3 * k + 1) % ctx.p ** d for k in range(n - 1)))
    labels, columns, pairing = dense_deformation(ctx, point)
    good = DieudonneDisplay(ctx, labels, columns, pairing)
    assert polarization_check(good) == [] == dense_polarization(good)
    # still alternating and unimodular, but no longer compatible with F
    i, j = labels.index(a), labels.index(b)
    pairing[i][j] = pairing[i][j] + ctx.from_int(ctx.p)
    pairing[j][i] = pairing[j][i] - ctx.from_int(ctx.p)
    bad = DieudonneDisplay(ctx, labels, columns, pairing)
    assert validate_display(bad).ok
    found = polarization_check(bad)
    assert found and found == dense_polarization(bad)


# Polarization certified from F alone: A^T J A = p sigma(J) mod p^N at
# 1 <= v < N with V integral gives [] with no V derived; every other
# display is checked against V.  Each check is compared with the dense
# oracle and with the check run against V alone (_polarized switched off).

def polarization_outcome(check, D):
    """check(D), or the type and text of the error it raises."""
    try:
        return check(D)
    except (ValueError, PrecisionError) as exc:
        return type(exc), str(exc)


def against_v_alone(monkeypatch, D):
    with monkeypatch.context() as m:
        m.setattr(fcrystal, "_polarized", lambda display: False)
        return polarization_outcome(polarization_check, D)


def assert_polarization_agrees(monkeypatch, make):
    """The check of make(), each run on a fresh display, equals the dense
    oracle's and the check against V alone; returns it."""
    found = polarization_outcome(polarization_check, make())
    assert found == polarization_outcome(dense_polarization, make())
    assert found == against_v_alone(monkeypatch, make())
    return found


def rebuilt(D, perturb=None):
    """D rebuilt densely through the public constructor, with
    perturb(columns, pairing) applied to its dense lists first."""
    cols = [list(col) for col in zip(*D.frobenius)]
    pairing = [list(row) for row in D.pairing]
    if perturb is not None:
        perturb(cols, pairing)
    return DieudonneDisplay(D.ctx, D.basis, cols, pairing)


# (spec, p, d): N, M(m), def(n) and sums at d = 1..4 and p = 1000003
CERTIFIED = [("N", 3, 1), ("N", 2, 4), ("M(3)", 3, 2), ("M(4)", 2, 3),
             ("M(2)+N^2", 3, 4), ("def(4; s0=1, s2=2)", 3, 1),
             ("def(3; s2=5)", 3, 2), ("ss(4)+N", 5, 3),
             ("N", 1000003, 1), ("M(3)+N", 1000003, 2),
             ("def(5; s2=7, s3=1)", 1000003, 1)]


def certified_display(spec, p, d):
    spec = parse_module_spec(spec)
    return spec.build(make_context(p, d, default_precision(spec.half_rank,
                                                           d)))


@pytest.mark.parametrize("spec,p,d", CERTIFIED)
def test_module_specs_are_certified_from_f(spec, p, d, monkeypatch):
    D = certified_display(spec, p, d)
    v, integral = D._det_valuation()
    assert 1 <= v < D.ctx.N and integral
    assert fcrystal._polarized(D)
    assert fcrystal._polarized(rebuilt(D))
    assert assert_polarization_agrees(
        monkeypatch, lambda: certified_display(spec, p, d)) == []
    assert assert_polarization_agrees(
        monkeypatch, lambda: rebuilt(certified_display(spec, p, d))) == []


def perturb_f(k, i, j):
    """Add p^k times a unit to entry (i, j) of A."""
    def perturb(cols, pairing):
        ctx = cols[0][0].ctx
        unit = ctx.scalar([1] * ctx.d)
        cols[j][i] = cols[j][i] + ctx.from_int(ctx.p ** k) * unit
    return perturb


def perturb_j(k, i, j):
    """Add p^k times a unit to J_ij and take it from J_ji: J stays
    alternating."""
    def perturb(cols, pairing):
        ctx = pairing[0][0].ctx
        delta = ctx.from_int(ctx.p ** k) * ctx.scalar([1] * ctx.d)
        pairing[i][j] = pairing[i][j] + delta
        pairing[j][i] = pairing[j][i] - delta
    return perturb


@pytest.mark.parametrize("spec,p,d", CERTIFIED)
def test_perturbed_displays_match_the_dense_check(spec, p, d, monkeypatch):
    # F perturbed at a nonzero and at a zero entry, J at an off-diagonal
    # pair, at every valuation k < N.  J perturbed at k >= N_v, the
    # precision of V, leaves V as it is and no violation V can see, though
    # at k < N - 1 it changes A^T J A - p sigma(J) mod p^N
    good = certified_display(spec, p, d)
    N, r = good.ctx.N, good.rank
    n_v = good._verschiebung()[0].N
    i0 = good.sparse_frobenius[0][0][0]
    i1 = next(i for i in range(r)
              if i not in dict(good.sparse_frobenius[r - 1]))
    unseen = 0
    for k in range(N):
        for kind, perturb in (("F", perturb_f(k, i0, 0)),
                              ("F", perturb_f(k, i1, r - 1)),
                              ("J", perturb_j(k, 0, r - 1))):
            found = assert_polarization_agrees(
                monkeypatch, lambda: rebuilt(good, perturb))
            D = rebuilt(good, perturb)
            certified = fcrystal._polarized(D)
            if certified:
                assert found == []
            if kind == "J":
                assert D._verschiebung() == good._verschiebung()
                if k >= n_v:
                    assert found == []
                    unseen += not certified
    # at v = 1, N_v = N - 1 leaves no such k
    assert (unseen > 0) == (n_v < N - 1)


def test_violating_part_checks_the_whole_sum(monkeypatch):
    ctx = ctx_for(3, d=2)
    good = module_M(ctx, 3)
    bad = rebuilt(good, perturb_j(1, 0, 4))

    def make():
        return direct_sum(module_N(ctx), bad, module_N(ctx), good)

    found = assert_polarization_agrees(monkeypatch, make)
    assert found and {str(a) for a, _, _ in found} <= {"u1", "u2", "u3",
                                                     "v1", "v2", "v3"}


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("pairing", ["standard", "zero"])
def test_unit_frobenius_is_checked_against_v(d, pairing, monkeypatch):
    # v = 0: V is read at N + 1, beyond what the identity mod p^N gives,
    # so the check always derives V; with J = 0 it finds nothing, with the
    # pairing of N it finds the violations
    ctx = ctx_for(1, d=d)
    one, zero = ctx.one(), ctx.zero()
    J = ([[zero, one], [-one, zero]] if pairing == "standard"
         else [[zero, zero], [zero, zero]])

    def make():
        return DieudonneDisplay(ctx, (U(0), V(0)), [[zero, one], [one, zero]],
                                J)

    D = make()
    assert D._det_valuation() == (0, True)
    assert not fcrystal._polarized(D)
    assert D._verschiebung()[0].N == ctx.N + 1
    found = assert_polarization_agrees(monkeypatch, make)
    assert bool(found) == (pairing == "standard")


def test_certified_check_derives_no_v(monkeypatch):
    calls = []
    original = _linalg.adjugate_action

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_linalg, "adjugate_action", counting)
    for spec, p, d in CERTIFIED:
        assert polarization_check(certified_display(spec, p, d)) == []
    assert calls == []
    ctx = ctx_for(3, d=2)
    bad = rebuilt(module_M(ctx, 3), perturb_j(1, 0, 4))
    assert polarization_check(bad)
    assert len(calls) == 1


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("a,b", [(1, 9), (1, 27), (3 ** 11, 3 ** 11),
                                 (0, 1), (3, -1)])
def test_zero_pairing_keeps_v_errors(d, a, b, monkeypatch):
    # with J = 0 the identity A^T J A = p sigma(J) holds for every F, so
    # it certifies nothing unless 1 <= v < N and V is integral: a
    # non-integral V still raises ValueError and a singular A
    # PrecisionError, with their own texts
    ctx = ctx_for(1, d=d)
    zero = ctx.zero()

    def make():
        cols = [[zero, ctx.from_int(b)], [ctx.from_int(a), zero]]
        return DieudonneDisplay(ctx, (U(0), V(0)), cols,
                                [[zero, zero], [zero, zero]])

    v, integral = make()._det_valuation()
    found = assert_polarization_agrees(monkeypatch, make)
    if 1 <= v < ctx.N and integral:
        assert fcrystal._polarized(make()) and found == []
    else:
        assert not fcrystal._polarized(make())
        assert found[0] in (ValueError, PrecisionError)
