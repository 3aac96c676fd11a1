"""Residue field arithmetic and linear algebra against independent oracles.

FieldElement products, powers and inverses are checked against schoolbook
polynomial arithmetic modulo (f, p); the sparse fraction-free rank against
dense Gauss-Jordan elimination over F_{p^d}; a_number and signature against
dense elimination on the F_p blow-up of F and V.
"""

import itertools
import random

import pytest

from gustrata import (DeformationPoint, DieudonneDisplay, NonInvertibleError,
                      PrecisionError, a_number, deformation_display, direct_sum,
                      make_context, module_M, module_N, signature,
                      supersingular_module)
from gustrata._linalg import ops_for, rank
from gustrata.fcrystal import U, V
from gustrata.wittring import default_precision

from _oracles import (blowup_a_number, blowup_signature, field_inv_brute,
                      field_mul_brute, field_rank_brute)


FIELD_CASES = [(2, 4), (3, 3), (5, 2), (7, 1)]


@pytest.mark.parametrize("p,d", FIELD_CASES)
class TestFieldElementAgainstOracle:
    """Operands come from contexts at different N over the same field."""

    def test_products(self, p, d):
        ca, cb = make_context(p, d, 1), make_context(p, d, 7)
        mod = ca.modulus
        for i, j in itertools.product(range(p ** d), repeat=2):
            x, y = ca.field_from_int(i), cb.field_from_int(j)
            want = field_mul_brute(x.coords, y.coords, p, mod)
            assert (x * y).coords == want
            assert (y * x).coords == want

    def test_inverse(self, p, d):
        ctx = make_context(p, d, 5)
        for k in range(1, p ** d):
            x = ctx.field_from_int(k)
            assert x.inverse().coords == field_inv_brute(x.coords, p,
                                                         ctx.modulus)
        with pytest.raises(NonInvertibleError):
            ctx.field_from_int(0).inverse()

    def test_powers(self, p, d):
        ca, cb = make_context(p, d, 3), make_context(p, d, 12)
        mod, one = ca.modulus, (1,) + (0,) * (d - 1)
        rng = random.Random(100 * p + d)
        for k in rng.sample(range(1, p ** d), min(6, p ** d - 1)):
            x = ca.field_from_int(k)
            inv = field_inv_brute(x.coords, p, mod)
            for e in range(-p ** d - 1, p ** d + 2):
                want = one
                for _ in range(abs(e)):
                    want = field_mul_brute(want, x.coords if e > 0 else inv,
                                           p, mod)
                assert (x ** e).coords == want
                assert (x ** e * cb.field_from_int(1)).coords == want
        assert ca.field_from_int(0) ** 3 == 0


# ---------------------------------------------------------------------------
# sparse rank


RANK_CASES = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3)]


def _field(p, d):
    ctx = make_context(p, d, 1)
    return ctx, ops_for(ctx)


def _rand_elem(rng, p, d, density=1.0):
    if rng.random() >= density:
        return (0,) * d
    return tuple(rng.randrange(p) for _ in range(d))


def _sparse(ops, dense):
    """Dict rows of the raw data ops works on, zeros left out."""
    one = ops.ctx.d == 1
    return [{j: e[0] if one else e for j, e in enumerate(row) if any(e)}
            for row in dense]


def _combination(rng, base, p, mod):
    """A random F_{p^d}-linear combination of the rows in base."""
    d = len(mod)
    out = [(0,) * d] * len(base[0])
    for row in base:
        c = _rand_elem(rng, p, d)
        out = [tuple((x + y) % p for x, y in zip(o, field_mul_brute(c, e, p,
                                                                    mod)))
               for o, e in zip(out, row)]
    return out


@pytest.mark.parametrize("p,d", RANK_CASES)
class TestSparseRank:
    def _check(self, ctx, ops, dense):
        want = field_rank_brute(dense, ctx.p, ctx.modulus)
        assert rank(ops, _sparse(ops, dense)) == want
        return want

    def test_random_sparse(self, p, d):
        ctx, ops = _field(p, d)
        rng = random.Random(7 * p + d)
        for _ in range(25):
            nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)
            dens = rng.choice((0.15, 0.3, 0.6))
            dense = [[_rand_elem(rng, p, d, dens) for _ in range(nc)]
                     for _ in range(nr)]
            self._check(ctx, ops, dense)

    def test_zero_and_repeated_rows(self, p, d):
        ctx, ops = _field(p, d)
        rng = random.Random(11 * p + d)
        for _ in range(10):
            nc = rng.randrange(2, 8)
            rows = [[_rand_elem(rng, p, d, 0.5) for _ in range(nc)]
                    for _ in range(rng.randrange(1, 5))]
            rows += [[(0,) * d] * nc] * 2 + [rows[0]] * 2
            rng.shuffle(rows)
            want = self._check(ctx, ops, rows)
            assert want <= len(rows) - 3

    def test_rank_deficient(self, p, d):
        ctx, ops = _field(p, d)
        rng = random.Random(13 * p + d)
        for k in range(0, 5):
            nc = k + rng.randrange(1, 4)
            base = [[_rand_elem(rng, p, d, 0.5) for _ in range(nc)]
                    for _ in range(k)]
            if not base:
                base = [[(0,) * d] * nc]
            rows = base + [_combination(rng, base, p, ctx.modulus)
                           for _ in range(4)]
            assert self._check(ctx, ops, rows) <= k

    def test_block_diagonal(self, p, d):
        ctx, ops = _field(p, d)
        rng = random.Random(17 * p + d)
        zero = (0,) * d
        for _ in range(6):
            sizes = [rng.randrange(1, 4) for _ in range(3)]
            blocks = [[[_rand_elem(rng, p, d, 0.6) for _ in range(s)]
                       for _ in range(s)] for s in sizes]
            total = sum(sizes)
            dense, off = [], 0
            for blk, s in zip(blocks, sizes):
                for row in blk:
                    dense.append([zero] * off + row
                                 + [zero] * (total - off - s))
                off += s
            want = self._check(ctx, ops, dense)
            assert want == sum(field_rank_brute(b, p, ctx.modulus)
                               for b in blocks)

    def test_empty(self, p, d):
        _, ops = _field(p, d)
        assert rank(ops, []) == 0
        assert rank(ops, [{}, {}, {}]) == 0


# ---------------------------------------------------------------------------
# a_number and signature against the F_p blow-up


ZOO_CASES = [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (2, 3), (3, 3),
             (2, 4)]


def _random_point(ctx, n, rng):
    q = ctx.p ** ctx.d
    return DeformationPoint.from_ints(
        ctx, n, tuple(rng.randrange(q) for _ in range(n - 1)))


@pytest.mark.parametrize("p,d", ZOO_CASES)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_zoo_against_blowup(p, d, n):
    """a_number and signature read F alone; the blow-up oracles read V."""
    ctx = make_context(p, d, default_precision(n, d))
    rng = random.Random(1000 * p + 100 * d + n)
    displays = [
        deformation_display(ctx, _random_point(ctx, n, rng)),
        module_M(ctx, n),
        supersingular_module(ctx, n),
        direct_sum(module_N(ctx), module_M(ctx, 2),
                   deformation_display(ctx, _random_point(ctx, n, rng))),
    ]
    if (p, d) == (2, 3):
        displays.append(direct_sum(
            module_N(ctx), deformation_display(ctx, _random_point(ctx, n, rng)),
            module_M(ctx, 3)))
    for D in displays:
        assert a_number(D) == blowup_a_number(D)
        assert signature(D) == blowup_signature(D)


def _mat_mul(ctx, x, y):
    return [[sum((a * b for a, b in zip(row, col)), ctx.zero())
             for col in zip(*y)] for row in x]


def _random_unimodular(ctx, r, rng):
    """L * R with L unit lower triangular and R upper triangular with unit
    diagonal, every other entry random."""
    def rand_scalar(unit):
        while True:
            x = ctx.scalar(tuple(rng.randrange(ctx.q) for _ in range(ctx.d)))
            if not unit or x.is_unit():
                return x

    low = [[ctx.one() if i == j else rand_scalar(False) if j < i
            else ctx.zero() for j in range(r)] for i in range(r)]
    up = [[rand_scalar(True) if i == j else rand_scalar(False) if j > i
           else ctx.zero() for j in range(r)] for i in range(r)]
    return _mat_mul(ctx, low, up)


@pytest.mark.parametrize("p,d", [(3, 2), (2, 3), (3, 3), (2, 4)])
def test_random_displays_against_blowup(p, d):
    """F = U diag(1, .., 1, p, .., p) W for random unimodular U and W.

    On zoo displays the twist of V is invisible (sigma^0, sigma^1 and
    sigma^2 of B give the same a-number there); on these it is not."""
    ctx = make_context(p, d, 8)
    rng = random.Random(31 * p + d)
    for _ in range(30):
        h = rng.randrange(2, 4)
        r = 2 * h
        k = rng.randrange(1, r)
        diag = [[(ctx.from_int(p) if i >= r - k else ctx.one()) if i == j
                 else ctx.zero() for j in range(r)] for i in range(r)]
        A = _mat_mul(ctx, _mat_mul(ctx, _random_unimodular(ctx, r, rng),
                                   diag), _random_unimodular(ctx, r, rng))
        basis = [U(i) for i in range(h)] + [V(i) for i in range(h)]
        zero_pairing = [[ctx.zero()] * r for _ in range(r)]
        D = DieudonneDisplay(ctx, basis, [list(c) for c in zip(*A)],
                             zero_pairing)
        assert a_number(D) == blowup_a_number(D)
        assert signature(D) == blowup_signature(D)


def _block_display(ctx, x, y):
    """The graded display with F = [[0, X], [Y, 0]] on u0.., v0.. and a
    zero pairing."""
    h = len(x)
    r = 2 * h
    cols = [[ctx.zero()] * r for _ in range(r)]
    for i in range(h):
        for j in range(h):
            cols[h + j][i] = x[i][j]
            cols[j][h + i] = y[i][j]
    basis = [U(i) for i in range(h)] + [V(i) for i in range(h)]
    return DieudonneDisplay(ctx, basis, cols, [[ctx.zero()] * r] * r)


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (3, 2), (2, 3)])
def test_any_elementary_divisors_against_v(p, d):
    """F = U diag(e) W, graded or not, with e in {1, p, p^2, 0}: where V is
    not integral, or not determined, a_number and signature raise V's own
    exception and text; elsewhere they match the blow-up oracles."""
    ctx = make_context(p, d, 6)
    rng = random.Random(71 * p + d)

    def scaled(h):
        divisors = [rng.choice((1, 1, p, p, p * p, 0)) for _ in range(h)]
        diag = [[ctx.from_int(divisors[i]) if i == j else ctx.zero()
                 for j in range(h)] for i in range(h)]
        return _mat_mul(ctx, _mat_mul(ctx, _random_unimodular(ctx, h, rng),
                                      diag), _random_unimodular(ctx, h, rng))

    outcomes = set()
    for _ in range(25):
        h = rng.randrange(1, 4)
        full = scaled(2 * h)
        basis = [U(i) for i in range(h)] + [V(i) for i in range(h)]
        for D in (DieudonneDisplay(ctx, basis, [list(c) for c in zip(*full)],
                                   [[ctx.zero()] * (2 * h)] * (2 * h)),
                  _block_display(ctx, scaled(h), scaled(h))):
            try:
                D._verschiebung()
            except (PrecisionError, ValueError) as exc:
                outcomes.add(type(exc))
                for consumer in (a_number, signature):
                    fresh = DieudonneDisplay._from_sparse(
                        ctx, D.basis, D.sparse_frobenius, D.sparse_pairing)
                    with pytest.raises(type(exc)) as info:
                        consumer(fresh)
                    assert str(info.value) == str(exc)
            else:
                outcomes.add(None)
                assert a_number(D) == blowup_a_number(D)
                assert signature(D) == blowup_signature(D)
    assert outcomes == {None, PrecisionError, ValueError}
