"""Newton-lifted Teichmuller and Frobenius roots, and derived precision
contexts, against independent oracles."""

import random

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


def count_calls(monkeypatch, name):
    """The argument tuples of every call of the RingContext method name,
    on contexts and on the bare rings of a Newton iteration alike."""
    calls = []
    original = getattr(RingContext, name)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(RingContext, name, counting)
    return calls


def test_lift_cost_grows_like_log_precision(monkeypatch):
    # The root more than doubles the precision per step: 48 -> 384 adds
    # three steps, each one power x^8 and one product.  Iterating
    # y -> y^9 gains two digits per step, about 8x the products.
    small, large = make_context(3, 2, 48), make_context(3, 2, 384)
    y = small.field_from_int(5).coords
    roots = count_calls(monkeypatch, "_teich_root")
    products = count_calls(monkeypatch, "_wmul")
    small.teichmuller(small.field_from_int(5))
    assert len(roots) == 1  # the routine measured below is the lift's
    products.clear()
    small._teich_root(y)
    at_48 = len(products)
    large._teich_root(y)
    at_384 = len(products) - at_48
    assert 0 < at_48 and at_384 < 2 * at_48


def least_primitive_code(ctx):
    """The least code of an element of order Q - 1 in F_Q, by counting
    its powers."""
    Q, one = ctx.p ** ctx.d, ctx.field_from_int(1)
    for code in range(2, Q):
        a = x = ctx.field_from_int(code)
        order = 1
        while x != one:
            x, order = x * a, order + 1
        if order == Q - 1:
            return code
    return 1


def _pow(ctx, x, e):
    """x^e for a scalar x of ctx, by repeated products."""
    out = ctx.one()
    for _ in range(e):
        out = out * x
    return out


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 2), (2, 4), (7, 1)])
def test_root_of_unity_step_gains_2k_plus_d_minus_1(p, d):
    """One step x <- x + x (1 - x^m) / m, m = p^d - 1, from a root mod p^k
    of x^m = 1 gives one mod p^(2k + d - 1), the bound the Teichmuller
    root's precisions rest on (_doubling(1, d - 1)); checked against the
    oracle's lifts, from starts off by a random multiple of p^k."""
    N = 40
    ctx = make_context(p, d, N)
    rng = random.Random(f"{p} {d}")
    m = p ** d - 1
    minv = ctx.from_int(pow(m, -1, ctx.q))
    for code in range(2, min(p ** d, 12)):
        t = ctx.scalar(teichmuller_oracle(p, d, N, ctx.modulus,
                                          ctx.field_from_int(code).coords))
        for k in range(1, 12):
            off = ctx.scalar([rng.randrange(ctx.q) * p ** k
                              for _ in range(d)])
            x = t + off
            x = x + x * (1 - _pow(ctx, x, m)) * minv
            assert (x - t).valuation() >= min(N, 2 * k + d - 1), (code, k)


def test_newton_steps_run_at_doubling_precisions(monkeypatch):
    """Each Newton root runs its steps at ascending precisions that end at
    N, each at most twice the one before (plus d - 1 for a Teichmuller
    root), and a derived context's Frobenius root runs only the steps
    above the precision it starts from."""
    chains = []
    original = RingContext._doubling

    def spy(self, k, extra=0):
        rings = original(self, k, extra)
        chains.append((k, extra, [ring.N for ring in rings], self.N))
        return rings

    monkeypatch.setattr(RingContext, "_doubling", spy)
    ctx = make_context(3, 3, 100)
    ctx.teichmuller(ctx.field_from_int(5))
    derived = ctx.at_precision(400)
    assert [c[:2] for c in chains] == [(1, 0), (1, 2), (100, 0)]
    for k, extra, precisions, N in chains:
        assert precisions[-1] == N
        bounds = [k] + precisions[:-1]
        assert all(k < P <= 2 * b + extra
                   for P, b in zip(precisions, bounds)), precisions
    assert derived._frob == RingContext(3, 3, 400, ctx.modulus)._frob


class TestLiftEdges:
    """Lifts at the edges of the root and of the small-field memo, each
    against the oracle."""

    def test_f2_has_no_lift_to_compute(self, monkeypatch):
        # F_2^x is trivial: 0 and 1 are their own lifts at every precision
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        for N in (1, 2, 7):
            ctx = make_context(2, 1, N)
            assert [ctx.teichmuller(ctx.field_from_int(k)).coords
                    for k in (0, 1, 1, 0)] == [(0,), (1,), (1,), (0,)]
        assert roots == [] and walks == []

    @pytest.mark.parametrize("N", [1, 2, 5, 40])
    def test_f3_generator_lifts_to_minus_one(self, N, monkeypatch):
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        ctx = make_context(3, 1, N)
        assert ctx.teichmuller(ctx.field_from_int(2)) == ctx.from_int(-1)
        assert roots == [((2,),)] and len(walks) == 1
        assert {y: t.coords for y, t in ctx._teich_cache.items()} == {
            (1,): (1,), (2,): (ctx.q - 1,)}

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (5, 1), (7, 2),
                                     (2, 5), (3, 3)])
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 33])
    def test_low_and_odd_precisions(self, p, d, N, monkeypatch):
        # residues other than 0 and 1 run a root each until r roots pay
        # for a walk, Q - 1 <= (r + 1) c: with c = N.bit_length() *
        # Q.bit_length() that is r = (Q - 2) // c, the roots of codes 2 to
        # r + 1, and a walk when r < Q - 2.  The walk runs one more root,
        # for the least primitive element g, unless g's code is among
        # those.  A small field (Q - 1 <= c: (2, 2) always, (3, 2) and
        # (5, 1) from N = 2, (2, 5) and (3, 3) at N = 33) walks at its
        # first lift, and runs g's root; the others, (2, 5) at N = 1 after
        # five roots, later, and run none when g's code is at most r + 1
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        ctx = make_context(p, d, N)
        Q = p ** d
        for k in range(Q):
            a = ctx.field_from_int(k)
            assert ctx.teichmuller(a).coords == teichmuller_oracle(
                p, d, N, ctx.modulus, a.coords), k
        r = (Q - 2) // (N.bit_length() * Q.bit_length())
        g = least_primitive_code(ctx)
        assert len(roots) == min(Q - 2, r + (g >= r + 2))
        assert len(walks) == (r < Q - 2)

    def test_mid_size_field_walks_at_its_eleventh_root(self, monkeypatch):
        # F_729 at N = 104: Q - 1 = 728 > 70 = c, so ten roots run before
        # (10 + 1) * 70 >= 728 makes the next lift walk, which runs the
        # eleventh root, for the least primitive element g: g is not among
        # the ten; seven lifts that hit the memo afterwards are checked
        # against the oracle
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        p, d, N = 3, 6, 104
        ctx = make_context(p, d, N)
        codes = list(range(2, p ** d))
        random.Random(11).shuffle(codes)
        assert least_primitive_code(ctx) not in codes[:10]
        lifts = [ctx.teichmuller(ctx.field_from_int(k)) for k in codes]
        assert len(roots) == 11 and len(walks) == 1
        assert len(ctx._teich_cache) == p ** d - 1
        for k, t in list(zip(codes, lifts))[::100]:
            assert t.coords == teichmuller_oracle(
                p, d, N, ctx.modulus, ctx.field_from_int(k).coords), k

    def test_walk_reuses_a_memoized_generator_lift(self, monkeypatch):
        # the same field with g asked first: the walk at the eleventh lift
        # takes g's memoized lift and runs no root of its own
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        p, d, N = 3, 6, 104
        ctx = make_context(p, d, N)
        g = least_primitive_code(ctx)
        codes = [g] + [k for k in range(2, p ** d) if k != g]
        lifts = [ctx.teichmuller(ctx.field_from_int(k)) for k in codes]
        assert len(roots) == 10 and len(walks) == 1
        assert len(ctx._teich_cache) == p ** d - 1
        assert ctx.teichmuller(ctx.field_from_int(g)) is lifts[0]
        for k, t in list(zip(codes, lifts))[::100]:
            assert t.coords == teichmuller_oracle(
                p, d, N, ctx.modulus, ctx.field_from_int(k).coords), k

    def test_large_prime_one_root_per_residue(self, monkeypatch):
        p, N = 1000003, 40
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        ctx = make_context(p, 1, N)
        codes = [2, 3, p - 1, 12345, 2, p - 1, 999999, 0, 1]
        for k in codes:
            a = ctx.field_from_int(k)
            assert ctx.teichmuller(a).coords == teichmuller_oracle(
                p, 1, N, ctx.modulus, a.coords), k
        assert [y for (y,) in roots] == [(2,), (3,), (p - 1,), (12345,),
                                         (999999,)]
        assert walks == []

    def test_memo_limit(self, monkeypatch):
        """A field the memo cannot hold whole never walks: with room for 5
        lifts, F_9 runs a root per residue other than 0 and 1 until the
        memo is full; every lift stays right, and one left out runs a root
        of its own on each call (0 and 1 need none)."""
        monkeypatch.setattr(wittring, "_TEICH_MEMO_LIMIT", 5)
        roots = count_calls(monkeypatch, "_teich_root")
        walks = count_calls(monkeypatch, "_memo_powers")
        p, d, N = 3, 2, 20
        ctx = make_context(p, d, N)
        codes = list(range(p ** d))
        random.Random(7).shuffle(codes)
        for k in codes + codes:
            a = ctx.field_from_int(k)
            assert ctx.teichmuller(a).coords == teichmuller_oracle(
                p, d, N, ctx.modulus, a.coords), k
        assert len(ctx._teich_cache) == 5 and walks == []
        missing = [k for k in codes if ctx.field_from_int(k).coords
                   not in ctx._teich_cache]
        assert len(missing) == 4
        assert len(roots) == p ** d - 2 + len([k for k in missing if k > 1])


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
