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
