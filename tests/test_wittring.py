import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gustrata import (CapacityError, NonInvertibleError, RingContext,
                      context_from_json, default_precision, make_context)
from gustrata import wittring
from gustrata.wittring import scalar_from_json

from gustrata._linalg import ops_for

from _oracles import (first_irreducible_brute, int_valuation,
                      is_irreducible_brute, teichmuller_oracle)


# (1000003, 2, 3) inverts with a norm whose cost does not grow with p
CONTEXTS = [(2, 1, 8), (3, 1, 12), (3, 2, 6), (2, 2, 10), (5, 2, 9),
            (2, 3, 7), (2, 5, 6), (1000003, 2, 3)]


@pytest.fixture(scope="module")
def contexts():
    return {params: make_context(*params) for params in CONTEXTS}


class TestMakeContext:
    def test_degree_one_modulus_is_x(self):
        ctx = make_context(2, 1, 8)
        assert ctx.modulus == (0,)
        assert ctx.q == 2 ** 8

    def test_first_irreducible_over_f3(self):
        # oracle: enumerate monic quadratics over F_3, factor by brute force
        assert first_irreducible_brute(3, 2) == (1, 0)  # x^2 + 1
        ctx = make_context(3, 2, 6)
        assert ctx.modulus == (1, 0)

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 3), (5, 2), (7, 2),
                                     (2, 6), (3, 4)])
    def test_modulus_matches_brute_force_enumeration(self, p, d):
        assert make_context(p, d, 4).modulus == first_irreducible_brute(p, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_binomial_skip_keeps_the_first_irreducible(self, p):
        # the search skips x^d + c where no binomial of degree d is
        # irreducible (at every d >= 2 for p = 2, and at some d <= 6 for
        # each other p here) and finds the brute-force first all the same
        for d in range(1, 7):
            assert wittring._first_irreducible(p, d) == \
                first_irreducible_brute(p, d), d

    def test_large_prime_quartic_skips_the_binomials(self, monkeypatch):
        # 1000003 = 3 mod 4, so no x^4 + c is irreducible: the search
        # skips them, and x^4 + x, which x divides, and tests
        # x^4 + x + 1, not the million binomials first
        tested = self._spy_irreducible(monkeypatch)
        assert wittring._first_irreducible(1000003, 4) == (1, 1, 0, 0)
        assert tested == [(1, 1, 0, 0, 1)]

    @staticmethod
    def _spy_irreducible(monkeypatch):
        """The list of the candidates _is_irreducible is asked about."""
        tested = []
        is_irreducible = wittring._is_irreducible

        def spy(f, p):
            tested.append(tuple(f))
            return is_irreducible(f, p)

        monkeypatch.setattr(wittring, "_is_irreducible", spy)
        return tested

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (3, 2),
                                     (3, 3), (3, 4), (5, 2), (5, 3),
                                     (7, 2), (2, 6)])
    def test_candidates_divisible_by_x_are_not_tested(self, p, d,
                                                      monkeypatch):
        # at d >= 2 a candidate with constant coefficient 0 is reducible:
        # the search never tests one and finds the brute-force first
        tested = self._spy_irreducible(monkeypatch)
        assert wittring._first_irreducible(p, d) == \
            first_irreducible_brute(p, d)
        assert tested and all(f[0] for f in tested)
        assert tested[-1][:-1] == first_irreducible_brute(p, d)

    def test_degree_one_keeps_x(self, monkeypatch):
        tested = self._spy_irreducible(monkeypatch)
        assert wittring._first_irreducible(3, 1) == (0,)
        assert tested == [(0, 1)]

    def test_one_rabin_test_at_3_2(self, monkeypatch):
        # x^2 + 1 is the first candidate tested, not after x^2
        tested = self._spy_irreducible(monkeypatch)
        assert wittring._first_irreducible(3, 2) == (1, 0)
        assert tested == [(1, 0, 1)]

    @pytest.mark.parametrize("p,top", [(2, 7), (3, 4), (5, 3)])
    def test_irreducibility_matches_trial_division(self, p, top):
        for d in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=d):
                f = list(tail) + [1]
                assert wittring._is_irreducible(f, p) == \
                    is_irreducible_brute(f, p), f

    # x (x^2 + x + 1) (x^3 + x + 1) over F_2: squarefree with factors of
    # degrees dividing 6, so x^64 = x mod f, and only the unit test for
    # the proper divisors of 6 refuses it
    _REDUCIBLE = (0, 1, 0, 0, 0, 1)

    def test_reducible_modulus_with_x_power_fixed_rejected(self):
        f = list(self._REDUCIBLE) + [1]
        assert not is_irreducible_brute(f, 2)
        with pytest.raises(ValueError, match="modulus is reducible mod p"):
            RingContext(2, 6, 4, self._REDUCIBLE)
        with pytest.raises(ValueError, match="modulus is reducible mod p"):
            context_from_json({"p": 2, "d": 6, "N": 4, "modulus": f})

    def test_make_context_tests_irreducibility_once(self, monkeypatch):
        calls = []
        original = wittring._is_irreducible

        def counting(f, p):
            calls.append(tuple(f))
            return original(f, p)

        monkeypatch.setattr(wittring, "_is_irreducible", counting)
        ctx = make_context(5, 2, 9)
        # x^2 + 1 = (x - 2)(x + 2), then x^2 + 2: one test each (x^2,
        # which x divides, is skipped untested)
        assert calls == [(1, 0, 1), (2, 0, 1)]
        assert ctx.modulus == (2, 0)

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            make_context(4, 1, 8)
        with pytest.raises(ValueError, match="prime"):
            make_context(1, 1, 8)

    def test_primality_matches_a_sieve_below_1e5(self):
        limit = 10 ** 5
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, limit, i))
        assert [n for n in range(limit) if wittring._is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the bases 2..7 and to every prime base up
        # to 37; the second is why 41 is among the bases
        for n, factors in ((3215031751, (151, 751, 28351)),
                           (318665857834031151167461,
                            (399165290221, 798330580441))):
            assert math.prod(factors) == n
            assert not wittring._is_prime(n)

    def test_sixty_bit_prime_accepted_fast(self):
        p = 1000000000000000003
        start = time.perf_counter()
        ctx = make_context(p, 1, 8)
        assert time.perf_counter() - start < 0.5
        assert ctx.p == p

    def test_p_beyond_the_proven_range_rejected(self):
        limit = wittring._PRIME_LIMIT
        with pytest.raises(ValueError, match="must be below"):
            make_context(limit, 1, 8)
        with pytest.raises(ValueError, match="must be below"):
            make_context(10 ** 25 - 1, 1, 8)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            make_context(3, 0, 8)
        with pytest.raises(ValueError):
            make_context(3, 1, 0)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="capacity"):
            make_context(3, 50, 10 ** 6)

    def test_deterministic_across_calls(self):
        a, b = make_context(5, 2, 9), make_context(5, 2, 9)
        assert a == b and a.modulus == b.modulus

    def test_default_precision(self):
        assert default_precision(3, 1) == 20
        assert default_precision(7, 2) == 64


class _PowerlessPrime(int):
    """An int whose powers fail: proves a check ran before p ** N."""

    def __pow__(self, other, mod=None):
        raise AssertionError("p ** N computed before the capacity check")


# p = 3 takes 2 bits, so the 2^21-bit limit allows N <= 2^20 at d = 1:
# N = 2^19 + 1 fits, its double 2^20 + 2 does not.
_FITS_N = 1 << 19
_DOUBLED_OVER = 2 * (_FITS_N + 1)


class TestCapacityInEveryConstructor:
    def test_ring_context_checks_before_powering(self):
        with pytest.raises(CapacityError, match="capacity"):
            RingContext(_PowerlessPrime(3), 1, _DOUBLED_OVER, (0,))

    def test_at_precision(self):
        ctx = make_context(3, 1, _FITS_N + 1)
        with pytest.raises(CapacityError, match="capacity"):
            ctx.at_precision(2 * ctx.N)
        assert 2 * ctx.N == _DOUBLED_OVER

    def test_context_from_json(self):
        obj = {"p": _PowerlessPrime(3), "d": 1, "N": _DOUBLED_OVER,
               "modulus": [0, 1]}
        with pytest.raises(CapacityError, match="capacity"):
            context_from_json(obj)

    def test_limit_itself_fits(self):
        assert RingContext(3, 1, 2 * _FITS_N, (0,)).N == 1 << 20


def scalars(ctx):
    return st.tuples(*[st.integers(min_value=0, max_value=ctx.q - 1)
                       for _ in range(ctx.d)]).map(ctx.scalar)


@pytest.mark.parametrize("params", CONTEXTS)
class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ring_axioms(self, params, data, contexts):
        ctx = contexts[params]
        x = data.draw(scalars(ctx))
        y = data.draw(scalars(ctx))
        z = data.draw(scalars(ctx))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x + (-x) == ctx.zero()
        assert x * ctx.one() == x

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_frobenius_is_ring_hom_of_order_d(self, params, data, contexts):
        ctx = contexts[params]
        x = data.draw(scalars(ctx))
        y = data.draw(scalars(ctx))
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        assert x.frobenius(ctx.d) == x
        # p-power map on the residue field
        assert x.frobenius().reduce_mod_p() == x.reduce_mod_p() ** ctx.p

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mod_p_reduction_commutes(self, params, data, contexts):
        ctx = contexts[params]
        x = data.draw(scalars(ctx))
        y = data.draw(scalars(ctx))
        assert (x + y).reduce_mod_p() == x.reduce_mod_p() + y.reduce_mod_p()
        assert (x * y).reduce_mod_p() == x.reduce_mod_p() * y.reduce_mod_p()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inverse(self, params, data, contexts):
        ctx = contexts[params]
        x = data.draw(scalars(ctx))
        if x.is_unit():
            assert x * x.inverse() == ctx.one()
        else:
            with pytest.raises(NonInvertibleError):
                x.inverse()


class TestFrobenius:
    def test_identity_on_one(self):
        ctx = make_context(3, 2, 6)
        assert ctx.one().frobenius() == ctx.one()

    def test_trivial_when_d_is_one(self):
        ctx = make_context(5, 1, 6)
        for k in range(0, 30, 7):
            x = ctx.from_int(k)
            assert x.frobenius() == x

    def test_teichmuller_conjugates(self):
        # sigma(t(a)) = t(a^p) for every a, exhaustively over F_9
        ctx = make_context(3, 2, 6)
        for k in range(9):
            a = ctx.field_from_int(k)
            assert ctx.teichmuller(a).frobenius() == ctx.teichmuller(a ** 3)

    def test_generator_conjugate(self):
        ctx = make_context(3, 2, 6)
        # find a multiplicative generator of F_9
        for k in range(2, 9):
            g = ctx.field_from_int(k)
            if all((g ** e).to_int() != 1 for e in range(1, 8)):
                break
        assert ctx.teichmuller(g).frobenius() == ctx.teichmuller(g ** 3)


class TestTeichmuller:
    def test_zero_and_one(self):
        ctx = make_context(3, 2, 6)
        assert ctx.teichmuller(ctx.field_from_int(0)) == ctx.zero()
        assert ctx.teichmuller(ctx.field_from_int(1)) == ctx.one()

    def test_unique_nonzero_idempotent_mod_256(self):
        # x^2 = x over Z/2^8 has exactly the solutions 0 and 1
        solutions = [x for x in range(256) if (x * x - x) % 256 == 0]
        assert solutions == [0, 1]
        ctx = make_context(2, 1, 8)
        assert ctx.teichmuller(ctx.field_from_int(1)) == ctx.one()

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                     (5, 2), (2, 3)])
    def test_multiplicative_exhaustive(self, p, d):
        # exhaustive for residue fields with at most 25 elements
        ctx = make_context(p, d, 8)
        lifts = {k: ctx.teichmuller(ctx.field_from_int(k))
                 for k in range(p ** d)}
        for a, b in itertools.product(range(p ** d), repeat=2):
            fa, fb = ctx.field_from_int(a), ctx.field_from_int(b)
            assert lifts[a] * lifts[b] == ctx.teichmuller(fa * fb)

    def test_lifts_memoized_per_context(self):
        ctx = make_context(3, 2, 6)
        first = [ctx.teichmuller(ctx.field_from_int(k)) for k in range(9)]
        again = [ctx.teichmuller(ctx.field_from_int(k)) for k in range(9)]
        assert all(a is b for a, b in zip(first, again))

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(wittring, "_TEICH_MEMO_LIMIT", 3)
        ctx = make_context(3, 2, 6)
        lifts = [ctx.teichmuller(ctx.field_from_int(k)) for k in range(9)]
        assert len(ctx._teich_cache) == 3
        assert lifts == [ctx.teichmuller(ctx.field_from_int(k))
                         for k in range(9)]

    def test_fixed_by_q_power(self):
        ctx = make_context(3, 2, 10)
        for k in range(9):
            t = ctx.teichmuller(ctx.field_from_int(k))
            power = t
            for _ in range(2):
                power = power * power * power  # t^9 after two cubings
            assert power == t


class TestLiftsByProducts:
    """In a small residue field the first lift other than 0 and 1
    memoizes every lift as a power of the lift of the least primitive
    element, so a field's lifts take one Teichmuller root in all, whatever
    the order they are asked for in."""

    @pytest.mark.parametrize("p,d,N", [(3, 2, 48), (3, 2, 96), (5, 2, 48),
                                       (2, 4, 40), (7, 1, 30)])
    def test_every_order_gives_the_lifts(self, p, d, N, monkeypatch):
        ref = make_context(p, d, N)
        expected = {k: teichmuller_oracle(p, d, N, ref.modulus,
                                          ref.field_from_int(k).coords)
                    for k in range(p ** d)}
        roots = []
        original = RingContext._teich_root

        def counting(self, *args):
            roots.append(None)
            return original(self, *args)

        monkeypatch.setattr(RingContext, "_teich_root", counting)
        for seed in range(4):
            codes = list(range(p ** d))
            random.Random(seed).shuffle(codes)
            ctx = make_context(p, d, N)
            roots.clear()
            lifts = {k: ctx.teichmuller(ctx.field_from_int(k))
                     for k in codes}
            assert {k: t.coords for k, t in lifts.items()} == expected
            assert len(ctx._teich_cache) == p ** d
            # the routine every lift runs, once for the whole field
            assert len(roots) == 1
            assert all(ctx.teichmuller(ctx.field_from_int(k)) is lifts[k]
                       for k in codes)

    def test_large_field_lifts_one_at_a_time(self):
        # 7^3 - 1 = 342 > 4 * 9: products would cost more than a lift
        ctx = make_context(7, 3, 8)
        ctx.teichmuller(ctx.field_from_int(10))
        assert list(ctx._teich_cache) == [ctx.field_from_int(10).coords]


class TestFieldMemo:
    """field_from_int memoizes its elements by code, per context and up to
    _TEICH_MEMO_LIMIT of them."""

    def test_repeated_code_gives_the_same_element(self):
        ctx = make_context(5, 2, 9)
        first = [ctx.field_from_int(k) for k in range(25)]
        assert all(ctx.field_from_int(k) is x for k, x in enumerate(first))
        assert [x.to_int() for x in first] == list(range(25))

    def test_out_of_range_code_raises_every_time(self):
        ctx = make_context(3, 2, 6)
        for k in (-1, 9, 10 ** 6):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"field element code "
                                                     f"{k} out of range"):
                    ctx.field_from_int(k)
        assert ctx._field_cache == {}

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(wittring, "_TEICH_MEMO_LIMIT", 3)
        ctx = make_context(3, 2, 6)
        elements = [ctx.field_from_int(k) for k in range(9)]
        assert len(ctx._field_cache) == 3
        again = [ctx.field_from_int(k) for k in range(9)]
        assert again == elements
        assert [x.to_int() for x in again] == list(range(9))


class TestElementSemantics:
    """PadicScalar and FieldElement share one implementation; these pin
    what must still tell them apart."""

    def test_scalar_and_field_element_do_not_mix(self):
        ctx = make_context(3, 2, 6)
        s, x = ctx.from_int(2), ctx.field_from_int(2)
        for a, b in ((s, x), (x, s)):
            for op in (lambda a, b: a + b, lambda a, b: a - b,
                       lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(a, b)
            assert a != b and not a == b

    def test_field_elements_over_one_field_at_any_precision(self):
        lo, hi = make_context(3, 2, 4), make_context(3, 2, 11)
        for k in range(9):
            x, y = lo.field_from_int(k), hi.field_from_int(k)
            assert x == y and hash(x) == hash(y)
            assert x * y == y * x == lo.field_from_int(k) ** 2
            assert x.ctx is lo and y.ctx is hi

    def test_field_element_builds_no_context_until_it_computes(self):
        ctx = make_context(3, 2, 6)
        x = ctx.field_from_int(4)
        assert x.ctx is ctx and ctx._prec_cache == {}
        assert x + 1 == ctx.field_from_int(5) and 1 in ctx._prec_cache

    def test_mismatch_texts(self):
        ctx = make_context(3, 2, 6)
        other_n = make_context(3, 2, 7)
        other_field = make_context(3, 3, 6)
        with pytest.raises(ValueError, match="scalars from different "
                                             "contexts"):
            ctx.one() + other_n.one()
        with pytest.raises(ValueError, match="elements of different fields"):
            ctx.field_from_int(1) * other_field.field_from_int(1)
        assert ctx.one() != other_n.one()
        assert ctx.field_from_int(1) != other_field.field_from_int(1)

    def test_int_operands_reduce_by_each_modulus(self):
        ctx = make_context(3, 2, 4)
        assert (ctx.from_int(5) - 7).coords == (ctx.q - 2, 0)
        assert (7 - ctx.from_int(5)).coords == (2, 0)
        assert ctx.from_int(5) == 5 + ctx.q
        assert (ctx.field_from_int(2) + 2).coords == (1, 0)
        assert (-ctx.field_from_int(3)).coords == (0, 2)
        assert ctx.field_from_int(2) == 5

    def test_teichmuller_reduces_a_scalar(self):
        ctx = make_context(3, 2, 6)
        s = ctx.scalar((4, 7))
        assert ctx.teichmuller(s) == ctx.teichmuller(s.reduce_mod_p())
        assert ctx.teichmuller(s).coords[0] % 3 == 1
        with pytest.raises(TypeError):
            ctx.teichmuller(4)


class TestValuation:
    def test_examples(self):
        ctx = make_context(3, 1, 8)
        assert ctx.one().valuation() == 0
        assert ctx.from_int(3 * 5).valuation() == 1
        assert ctx.from_int(0).valuation() == 8  # the >= N sentinel
        assert ctx.from_int(3 ** 8).valuation() == 8

    def test_inverse_error_reports_valuation(self):
        ctx = make_context(3, 1, 8)
        with pytest.raises(NonInvertibleError, match="valuation 1") as exc:
            ctx.from_int(3).inverse()
        assert exc.value.valuation == 1

    def test_multiplicativity_at_low_valuation(self):
        ctx = make_context(3, 2, 9)
        x = ctx.scalar((3, 9))
        y = ctx.scalar((6, 3))
        assert x.valuation() == 1 and y.valuation() == 1
        assert (x * y).valuation() == 2


class _CountingInt(int):
    """An int that records each modulo or division it is the dividend of."""

    ops = []

    def __mod__(self, other):
        self.ops.append("%")
        return int(self) % other

    def __floordiv__(self, other):
        self.ops.append("//")
        return int(self) // other

    def __divmod__(self, other):
        self.ops.append("divmod")
        return divmod(int(self), other)


class TestDoublingValuation:
    """ops.val (RingContext._ival and _wval) against the digit-by-digit
    loop, on raw data that need not be reduced: zero, units and p^k times
    a unit for k up to N + 3, at precisions around powers of two."""

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 9, 16, 17, 33])
    def test_against_naive_loop(self, p, d, N):
        ctx = make_context(p, d, N)
        ops = ops_for(ctx)
        rng = random.Random(100 * p + 10 * d + N)

        def unit():
            return rng.choice([1, p - 1, 1 + p * rng.randrange(1, 50)])

        assert ops.val(ops.zero) == N
        for k in range(N + 4):
            for _ in range(4):
                # coordinates p^k * unit and p^(k + e) * (unit or 0), e > 0
                shifts = [rng.randrange(3) for _ in range(d)]
                shifts[rng.randrange(d)] = 0
                coords = tuple(
                    p ** (k + e) * (0 if e and rng.random() < 0.3 else unit())
                    for e in shifts)
                want = min(int_valuation(c, p, N + 5) for c in coords if c)
                raw = coords[0] if d == 1 else coords
                assert ops.val(raw) == min(want, N), (coords, k)
                reduced = ctx.scalar(coords)
                assert reduced.valuation() == min(want, N)

    def test_unit_costs_one_modulo(self):
        # sweeps read mostly units; at d > 1 the search runs on the gcd of
        # the coordinates
        ops = ops_for(make_context(3, 1, 40))
        _CountingInt.ops = []
        assert ops.val(_CountingInt(3 ** 39 + 7)) == 0
        assert _CountingInt.ops == ["%"]


class TestSerialization:
    def test_context_round_trip(self):
        ctx = make_context(3, 2, 6)
        blob = json.dumps(ctx.to_json())
        assert context_from_json(json.loads(blob)) == ctx

    def test_scalar_round_trip(self):
        ctx = make_context(5, 2, 9)
        x = ctx.scalar((123456, 5 ** 9 - 1))
        obj = x.to_json()
        assert all(isinstance(c, str) for c in obj["coords"])
        assert scalar_from_json(ctx, obj) == x

    def test_context_json_fields(self):
        ctx = make_context(3, 2, 6)
        obj = ctx.to_json()
        assert obj == {"p": 3, "d": 2, "N": 6, "modulus": [1, 0, 1]}
