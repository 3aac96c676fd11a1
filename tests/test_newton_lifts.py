"""Newton-lifted Teichmuller and Frobenius roots, and derived precision
contexts, against independent oracles."""

import pytest

from gustrata import default_precision, make_context
from gustrata import wittring
from gustrata.wittring import CapacityError, RingContext

from _oracles import teichmuller_oracle

FIELDS = [(2, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 3)]


def precisions(d):
    return (1, 2, 17, default_precision(4, d))


@pytest.mark.parametrize("p,d", FIELDS)
def test_teichmuller_matches_power_iteration(p, d):
    for N in precisions(d):
        ctx = make_context(p, d, N)
        for k in range(p ** d):
            a = ctx.field_from_int(k)
            assert ctx.teichmuller(a).coords == teichmuller_oracle(
                p, d, N, ctx.modulus, a.coords), (N, k)


@pytest.mark.parametrize("p,d", FIELDS)
def test_derived_contexts_equal_fresh_ones(p, d):
    for N in precisions(d):
        ctx = make_context(p, d, N)
        for k in sorted({k for k in (1, N - 1, N, 2 * N, 4 * N) if k >= 1}):
            derived = ctx.at_precision(k)
            fresh = RingContext(p, d, k, ctx.modulus)
            assert derived.params() == fresh.params()
            assert derived._red == fresh._red, (N, k)
            assert derived._frob == fresh._frob, (N, k)


def test_derived_context_skips_the_irreducibility_test(monkeypatch):
    ctx = make_context(5, 2, 30)
    fresh = {k: RingContext(5, 2, k, ctx.modulus)._frob for k in (7, 60)}

    def refuse(*args):
        raise AssertionError("irreducibility retested")

    monkeypatch.setattr(wittring, "_is_irreducible", refuse)
    for k in (7, 60):
        assert ctx.at_precision(k)._frob == fresh[k]


def test_derived_context_checks_capacity_first(monkeypatch):
    ctx = make_context(3, 2, 48)

    def refuse(self, *args):
        raise AssertionError("context built before the capacity check")

    monkeypatch.setattr(RingContext, "_init", refuse)
    # 3^N2 with N2 = 2^19 + 1 would be small to form, but d * N2 * 2 bits
    # is over the limit
    with pytest.raises(CapacityError, match="capacity exceeded"):
        ctx.at_precision((1 << 19) + 1)
    assert ctx._prec_cache == {}


def count_wmul(monkeypatch):
    calls = []
    original = RingContext._wmul

    def counting(self, a, b):
        calls.append(None)
        return original(self, a, b)

    monkeypatch.setattr(RingContext, "_wmul", counting)
    return calls


def test_lift_cost_grows_like_log_precision(monkeypatch):
    # Newton doubles the precision per step: 48 -> 384 adds three steps.
    # Iterating y -> y^9 gains two digits per step, about 8x the products.
    small, large = make_context(3, 2, 48), make_context(3, 2, 384)
    a_small, a_large = small.field_from_int(5), large.field_from_int(5)
    calls = count_wmul(monkeypatch)
    small.teichmuller(a_small)
    at_48 = len(calls)
    large.teichmuller(a_large)
    at_384 = len(calls) - at_48
    assert 0 < at_48 and at_384 < 2 * at_48


# d = 2: the Frobenius root in closed form, checked against the defining
# properties with integer arithmetic written out here

D2_PRIMES = (2, 3, 5, 7, 11, 1000003)
D2_PRECISIONS = (1, 2, 40, 120)


def _quad_mul(a, b, modulus, q):
    """(a0 + a1 x)(b0 + b1 x) in (Z/q)[x]/(x^2 + m1 x + m0)."""
    top = a[1] * b[1]
    return ((a[0] * b[0] - top * modulus[0]) % q,
            (a[0] * b[1] + a[1] * b[0] - top * modulus[1]) % q)


def _x_to_the_p(modulus, p):
    """x^p in F_p[x]/(f) by square and multiply."""
    out, base, e = (1, 0), (0, 1), p
    while e:
        if e & 1:
            out = _quad_mul(out, base, modulus, p)
        base = _quad_mul(base, base, modulus, p)
        e >>= 1
    return out


def _moduli(p):
    """The canonical modulus of make_context, and x^2 + x + a0 irreducible
    mod p (no root: at p = 2 a0 = 1, else 1 - 4 a0 a non-square), whose
    a1 = 1 tells -a1 - x from a1 - x at every p."""
    if p == 2:
        return [None, (1, 1)]
    a0 = next(a for a in range(p) if pow((1 - 4 * a) % p, (p - 1) // 2, p)
              == p - 1)
    return [None, (a0, 1)]


def _d2_context(p, N, modulus):
    if modulus is None:
        return make_context(p, 2, N)
    return RingContext(p, 2, N, modulus)


@pytest.mark.parametrize("p", D2_PRIMES)
def test_d2_root_is_the_frobenius_root(p):
    for modulus in _moduli(p):
        for N in D2_PRECISIONS:
            ctx = _d2_context(p, N, modulus)
            q, f = p ** N, ctx.modulus
            y = ctx.frobenius_coords((0, 1))
            y2 = _quad_mul(y, y, f, q)
            assert ((y2[0] + f[1] * y[0] + f[0]) % q,
                    (y2[1] + f[1] * y[1]) % q) == (0, 0), (modulus, N)
            assert tuple(c % p for c in y) == _x_to_the_p(f, p), (modulus, N)


@pytest.mark.parametrize("p", D2_PRIMES)
def test_d2_derived_context_has_the_fresh_tables(p):
    for modulus in _moduli(p):
        for N in D2_PRECISIONS:
            derived = _d2_context(p, N, modulus).at_precision(2 * N)
            fresh = _d2_context(p, 2 * N, modulus)
            assert derived.params() == fresh.params()
            assert derived._frob == fresh._frob, (modulus, N)
