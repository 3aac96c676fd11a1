"""V = sigma^(-1)(p A^(-1)) and the validation of F from the valuation-pivoted
elimination, against the Cayley-Hamilton oracle, on random library displays
whose determinant valuation and integrality are fixed by construction: F is
P diag(p^k_i) Q with P and Q of unit determinant, so val det A = sum k_i,
and p A^(-1) = Q^(-1) diag(p^(1 - k_i)) P^(-1) is integral exactly when
every k_i <= 1.  A graded F is [[0, X], [Y, 0]] with X and Y built that
way."""

import random

import pytest

from gustrata import (DieudonneDisplay, PrecisionError, make_context,
                      module_N, validate_display)
from gustrata.fcrystal import U, V

from _oracles import verschiebung_oracle


def random_entry(rng, ctx, density=0.7):
    if rng.random() > density:
        return ctx.zero()
    return ctx.scalar([rng.randrange(ctx.q) for _ in range(ctx.d)])


def product(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)]
            for row in a]


def unimodular(rng, ctx, m):
    """A random m x m matrix of unit determinant: a permutation of rows and
    of columns applied to L * T, L lower and T upper triangular, both with
    unit diagonals and sparse random entries off it."""
    one, zero = ctx.one(), ctx.zero()

    def unit():
        while True:
            e = random_entry(rng, ctx, 1.0)
            if e.is_unit():
                return e

    low = [[unit() if i == j else random_entry(rng, ctx, 0.5) if i > j
            else zero for j in range(m)] for i in range(m)]
    up = [[one if i == j else random_entry(rng, ctx, 0.5) if i < j
           else zero for j in range(m)] for i in range(m)]
    prod = product(low, up, zero)
    rows, cols = rng.sample(range(m), m), rng.sample(range(m), m)
    return [[prod[rows[i]][cols[j]] for j in range(m)] for i in range(m)]


def with_valuations(rng, ctx, ks):
    """P diag(p^k) Q for random P and Q of unit determinant."""
    m = len(ks)
    diag = [[ctx.from_int(ctx.p ** k) if i == j else ctx.zero()
             for j in range(m)] for i, k in enumerate(ks)]
    zero = ctx.zero()
    return product(product(unimodular(rng, ctx, m), diag, zero),
                   unimodular(rng, ctx, m), zero)


def valuations(rng, kind, count, N):
    """count pivot valuations whose sum and maximum give the kind."""
    ks = [0] * count
    if kind == "v1":
        ks[0] = 1
    elif kind == "v2":
        ones = rng.randrange(2, count + 1)
        ks[:ones] = [1] * ones
    elif kind == "non_integral":
        ks[0] = rng.randrange(2, N - 1)
    elif kind == "singular":
        # an entry p^N = 0, or two pivots whose valuations add up past N
        ks[:2] = rng.choice([[N, 0], [(N + 1) // 2] * 2])
    rng.shuffle(ks)
    return ks


def library_display(rng, ctx, n, graded, kind):
    """A rank-2n display on the labels u0.., v0.. in shuffled order, with
    zero pairing (only F matters here)."""
    labels = [U(i) for i in range(n)] + [V(i) for i in range(n)]
    rng.shuffle(labels)
    r = 2 * n
    ks = valuations(rng, kind, r, ctx.N)
    zero = ctx.zero()
    a = [[zero] * r for _ in range(r)]
    if graded:
        pos = {lab: k for k, lab in enumerate(labels)}
        x = with_valuations(rng, ctx, ks[:n])
        y = with_valuations(rng, ctx, ks[n:])
        for i in range(n):
            for j in range(n):
                a[pos[U(i)]][pos[V(j)]] = x[i][j]
                a[pos[V(i)]][pos[U(j)]] = y[i][j]
    else:
        a = with_valuations(rng, ctx, ks)
    columns = [list(col) for col in zip(*a)]
    return DieudonneDisplay(ctx, labels, columns, [[zero] * r] * r)


KINDS = ["v0", "v1", "v2", "non_integral", "singular"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("graded", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_against_cayley_hamilton(d, graded, kind):
    rng = random.Random(f"{d}{graded}{kind}")
    for draw in range(4):
        p = rng.choice([2, 3, 5] if d == 1 else [2, 3])
        ctx = make_context(p, d, rng.randrange(8, 11))
        display = library_display(rng, ctx, rng.randrange(1, 4), graded,
                                  kind)
        details, expected = verschiebung_oracle(display)
        checks = {c.name: list(c.details)
                  for c in validate_display(display).checks}
        assert (checks["frobenius_invertible"],
                checks["verschiebung_integral"]) == details
        if kind in ("non_integral", "singular"):
            error = ValueError if kind == "non_integral" else PrecisionError
            with pytest.raises(error) as info:
                display.verschiebung_matrix()
            assert str(info.value) == expected
        else:
            ctx_v, vmat = display.verschiebung_matrix()
            assert (ctx_v.N, [[e.coords for e in row] for row in vmat]) == \
                expected


def lifted(display, N2, moves):
    """The display at precision N2 with F moved by p^N E, E[i][j] the
    coordinates moves[(i, j)] (zero elsewhere)."""
    ctx = display.ctx
    hi = make_context(ctx.p, ctx.d, N2)
    pn = ctx.p ** ctx.N
    r = display.rank
    still = (0,) * ctx.d
    columns = [[hi.scalar([c + pn * m for c, m in zip(
        display.frobenius[i][j].coords, moves.get((i, j), still))])
        for i in range(r)] for j in range(r)]
    zero = hi.zero()
    return DieudonneDisplay(hi, display.basis, columns, [[zero] * r] * r)


def assert_lift_independent(display, moves):
    ctx_v, vmat = display.verschiebung_matrix()
    _, vhi = lifted(display, display.ctx.N + 3, moves).verschiebung_matrix()
    q = ctx_v.q
    assert [[tuple(c % q for c in e.coords) for e in row] for row in vhi] \
        == [[e.coords for e in row] for row in vmat]


def test_lift_of_module_N():
    # v = 1: p + p^N in place of p turns p A^(-1) at (0, 1) into
    # 1 - p^(N-1), so V holds at precision N - 1 only
    display = module_N(make_context(3, 1, 12))
    assert display.verschiebung_matrix()[0].N == 11
    assert_lift_independent(display, {(1, 0): (1,)})


@pytest.mark.parametrize("kind", ["v0", "v1", "v2"])
@pytest.mark.parametrize("graded", [True, False])
@pytest.mark.parametrize("d", [1, 2])
def test_lift_independence(d, graded, kind):
    rng = random.Random(f"lift{d}{graded}{kind}")
    for draw in range(4):
        ctx = make_context(3, d, 8)
        display = library_display(rng, ctx, 2, graded, kind)
        r = display.rank
        moves = {(i, j): tuple(rng.randrange(1, 9) for _ in range(d))
                 for i in range(r) for j in range(r) if rng.random() < 0.5}
        assert_lift_independent(display, moves)
