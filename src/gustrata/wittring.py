"""Exact arithmetic in truncated Witt rings of finite fields.

W_N(F_{p^d}) is modeled as (Z/p^N)[x]/(f) for a monic degree-d polynomial f
that is irreducible mod p, i.e. the unramified extension of Z_p of degree d
truncated at precision p^N.  Elements are coordinate vectors in the power
basis of f.  The ring comes with an exact Frobenius lift (the unique ring
automorphism reducing to the p-power map mod p), the Teichmuller section of
the residue field, and p-adic valuations capped at the working precision.

Both p-adic roots come from Newton's method at doubling precision: each
step runs at the next of the precisions ..., N/4, N/2, N (see
RingContext._doubling) on a bare ring that holds only the reduction table
at that precision, so a step costs products mod p^P only, and the whole
root about two steps at full precision (von zur Gathen and Gerhard, Modern
Computer Algebra, chapter 9).  The image of x under the Frobenius lift is
the root of f congruent to x^p; f is separable mod p, and the iteration
carries an approximate inverse of f' (RingContext._newton_root).  At d = 2
it needs no iteration: it is the other root of the quadratic modulus,
-a_1 - x (see RingContext._hensel_root).  A Teichmuller lift of a residue
other than 0 and 1 is the root of x^(p^d - 1) = 1 over it; p^d - 1 is a
unit, so the root-of-unity step x <- x + x (1 - x^m) / m needs no inverse
(RingContext._teich_root).  The roots are unique by Hensel's lemma, so
every lift is exactly the one any other convergent method gives.  A
context at another precision is derived from an existing one (see
RingContext.at_precision): the capacity check runs first, the modulus is
reused, and the root lift starts from the existing root.

The lifts of the nonzero residues form one cyclic group, and a product of
lifts is the lift of the product.  In a residue field the memo holds whole,
once the roots a context has run cost about as many products as the field
has elements, the next lift memoizes them all, as the powers of the lift of
the least primitive element (RingContext.teichmuller); in a small field
that is the first lift, so its context runs one Teichmuller root.

The modulus polynomial is the lexicographically smallest monic irreducible
of its degree (constant coefficient least significant), so every context is
reproducible from (p, d, N) alone.  A context memoizes its derived
precisions, its Teichmuller lifts and its residue field elements by code,
the last two up to _TEICH_MEMO_LIMIT of each; no memo outlives its
context.

There is one element implementation: PadicScalar (W_N) and FieldElement
(W_1 = F_{p^d}) share their arithmetic, which runs on the raw coordinate
kernels of a context (_wadd, _wsub, _wneg, _wmul, _winv), for a field
element on the context at precision 1.

There is one polynomial kernel: the context's product, power and linear
maps.  Irreducibility is decided on a bare ring at precision 1 that has
only the reduction table (see _is_irreducible): the p-power map mod p is
the linear map of the power table of x^p, f is irreducible exactly when
x^(p^d) = x and x^(p^k) - x is a unit for every proper divisor k of d,
and a unit test reads the (p - 1)-th power of the norm.  An inverse mod p,
which starts the Frobenius root's Newton inverse and each inverse of an
element, comes from the norm as well (Itoh and Tsujii): with r the product
of the conjugates sigma^k(a), k = 1..d-1, a r lies in F_p mod p, so
r (a r)^(-1) inverts a with d - 1 products whatever the size of p.  sigma
is the Frobenius lift's table, or for a fresh Frobenius root the power
table of x^p.  make_context finds its modulus by that test and builds the
context without testing it again.
"""

from __future__ import annotations

import math
from functools import partial


# A single scalar may not exceed this many bits across its coordinates.
_CAPACITY_BITS = 1 << 21
# Teichmuller lifts, and residue field elements by code, memoized per
# context; a context has p^d of each, which for a large residue field is
# more than a sweep should keep alive.
_TEICH_MEMO_LIMIT = 4096


class CapacityError(ValueError):
    """Raised when (p, d, N) would exceed the configured storage capacity."""


def _check_capacity(p, d, N):
    """Raise CapacityError unless a scalar of W_N(F_{p^d}) fits in
    _CAPACITY_BITS; runs before anything of that size is computed."""
    bits = d * N * p.bit_length()
    if bits > _CAPACITY_BITS:
        raise CapacityError(
            f"capacity exceeded: a scalar for (p={p}, d={d}, N={N}) needs "
            f"about {bits} bits, limit is {_CAPACITY_BITS}")


class NonInvertibleError(ArithmeticError):
    """Raised when inverting an element of positive valuation."""

    def __init__(self, valuation):
        self.valuation = valuation
        super().__init__(f"non-invertible, valuation {valuation}")


def default_precision(n, d):
    """Working precision used by the display-level drivers: 4*n*d + 8.

    A polygon is certified at N exactly when its certificate term, d*v
    for v = val det A (see _linalg.lane_slope_pairs), lies below N, so
    the certifying threshold is N* = d*v + 1.  A rank-2n deformation
    display has v = n, so this default is about four times its N* =
    d*n + 1; a sweep reads its polygons at N* and reports this N (see
    strata._records).  V and the pairing check need N > v as well.
    """
    return 4 * n * d + 8


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n < _PRIME_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 2017); larger p are rejected outright.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Primality of p < _PRIME_LIMIT by deterministic Miller-Rabin."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _is_irreducible(f, p):
    """Whether the monic f (coefficients low degree first) is irreducible
    over F_p, decided in R = F_p[x]/(f) on a bare ring at precision 1.

    f is irreducible exactly when x^(p^d) = x in R and x^(p^k) - x is a
    unit for every proper divisor k of d (Rabin's test, with every proper
    divisor in place of the maximal ones).  Once x^(p^d) = x holds, f
    divides x^(p^d) - x, so R is a product of fields whose degrees divide
    d, and g is a unit exactly when its norm g sigma(g) ... sigma^(d-1)(g),
    which is g^((p^d - 1)/(p - 1)), has (p - 1)-th power 1.  The p-power
    map sigma is the linear map g(x) -> g(x^p), the power table of x^p.
    """
    d = len(f) - 1
    if d == 1:
        return True
    ring = RingContext.__new__(RingContext)
    ring.p, ring.d, ring.N, ring.q = p, d, 1, p
    ring.modulus = tuple(f[:-1])
    ring._build_red()
    x = (0, 1) + (0,) * (d - 2)
    sigma = partial(ring._apply_lin, ring._power_table(ring._wpow(x, p)))
    powers = [x]
    for _ in range(d):
        powers.append(sigma(powers[-1]))
    if powers[d] != x:
        return False
    one = (1,) + (0,) * (d - 1)
    for k in range(1, d):
        if d % k == 0:
            g = ring._wsub(powers[k], x)
            norm = ring._wmul(g, ring._conjugate_product(g, sigma))
            if ring._wpow(norm, p - 1) != one:
                return False
    return True


def _prime_factors(m):
    """The distinct prime factors of m >= 1, by trial division."""
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + [m] if m > 1 else out


def _first_irreducible(p, d):
    """Lexicographically smallest monic irreducible of degree d over F_p.

    Candidates are ordered by the integer sum(c_i * p^i) over the non-leading
    coefficients, so the constant coefficient varies fastest.  The first p
    are the binomials x^d + c, and none of them is irreducible when some
    prime r | d does not divide p - 1, or when 4 | d and p = 3 mod 4 (Lidl
    & Niederreiter, Finite Fields, Thm. 3.75); the search then skips them.
    """
    skip = d % 4 == 0 and p % 4 == 3 or any(
        (p - 1) % r for r in _prime_factors(d))
    for k in range(p if skip else 0, p ** d):
        coeffs = [(k // p ** i) % p for i in range(d)]
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")


# ---------------------------------------------------------------------------
# ring context


class RingContext:
    """Immutable arithmetic context for W_N(F_{p^d}).

    All scalar operations reduce coordinates mod p^N and polynomial products
    modulo the modulus polynomial.  Construction precomputes the reduction
    table for x^d..x^(2d-2) and the power-basis images of all Frobenius
    iterates, so Frobenius twists are plain linear maps afterwards.
    """

    __slots__ = ("p", "d", "N", "q", "modulus", "_red", "_frob", "_root",
                 "_prec_cache", "_teich_cache", "_field_cache", "_ppow",
                 "_roots")

    def __init__(self, p, d, N, modulus):
        _check_capacity(p, d, N)
        self.p = p
        self.d = d
        self.modulus = tuple(int(c) for c in modulus)
        if len(self.modulus) != d:
            raise ValueError("modulus must list the d non-leading coefficients")
        if any(not 0 <= c < p for c in self.modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not _is_irreducible(list(self.modulus) + [1], p):
            raise ValueError("modulus is reducible mod p")
        self._init(N, None)

    # -- construction helpers ------------------------------------------------

    def _init(self, N, root):
        """Set the precision and build the tables; root is None or a
        (root, inverse, precision) triple to start the Frobenius root's
        lift from (see _hensel_root)."""
        self.N = N
        self.q = self.p ** N
        # p^(2^k) for 2^k <= N, the steps of _ival's doubling search
        self._ppow = [self.p]
        while 1 << len(self._ppow) <= N:
            self._ppow.append(self._ppow[-1] ** 2)
        self._prec_cache = {}
        self._teich_cache = {}
        self._field_cache = {}
        self._roots = 0  # Teichmuller roots run, read by teichmuller
        self._build_tables(root)

    @classmethod
    def _trusted(cls, p, d, modulus, N, root=None):
        """A context for a modulus already known to be irreducible, so no
        second test runs; root as in _init."""
        ctx = cls.__new__(cls)
        ctx.p, ctx.d, ctx.modulus = p, d, modulus
        ctx._init(N, root)
        return ctx

    def _build_red(self):
        """The reduction table: x^(d+k) mod f for k = 0..d-2."""
        d, q = self.d, self.q
        red = []
        if d > 1:
            row = tuple((-c) % q for c in self.modulus)
            red.append(row)
            for _ in range(d - 2):
                prev = red[-1]
                top = prev[d - 1]
                row = tuple(((prev[i - 1] if i else 0) + top * red[0][i]) % q
                            for i in range(d))
                red.append(row)
        self._red = tuple(red)

    def _build_tables(self, root):
        self._build_red()
        d = self.d
        # power-basis images of sigma^k for k = 0..d-1
        ident = tuple(tuple(1 if i == j else 0 for j in range(d))
                      for i in range(d))
        if d == 1:
            self._frob = (ident,)
            self._root = None
            return
        self._root = self._hensel_root(root)
        tables = [ident, self._power_table(self._root[0])]
        for _ in range(d - 2):
            prev = tables[-1]
            tables.append(tuple(self._apply_lin(tables[1], v) for v in prev))
        self._frob = tuple(tables)

    def _power_table(self, y):
        """(1, y, ..., y^(d-1)): the matrix of g(x) -> g(y) for _apply_lin."""
        tab = [(1,) + (0,) * (self.d - 1)]
        for _ in range(self.d - 1):
            tab.append(self._wmul(tab[-1], y))
        return tuple(tab)

    def _hensel_root(self, start):
        """(y, z, N): the root y of the modulus with y = x^p mod p, the
        image of x under the Frobenius lift, an inverse z of f'(y) to about
        half the precision, and the precision N, for a later context to
        start from.  Newton's method (_newton_root) starts from start, such
        a triple at any precision, or else from x^p and the inverse of
        f'(x^p) mod p, whose conjugates come from the power table of x^p.

        At d = 2 the root has a closed form and z is None, as is the
        carried inverse of start, which is unused: f = x^2 + a_1 x + a_0
        has the roots x and sigma(x), whose sum is -a_1, so
        sigma(x) = -a_1 - x exactly at every precision (and it is x^p
        mod p, the other root of the irreducible f mod p)."""
        d, q = self.d, self.q
        if d == 2:
            return ((-self.modulus[1]) % q, q - 1), None, self.N
        if start is None:
            y = self._wpow((0, 1) + (0,) * (d - 2), self.p)
            z = self._inv_mod_p(self._horner(self._fprime(), y),
                                partial(self._apply_lin, self._power_table(y)))
            k = 1
        else:
            y, z = (tuple(c % q for c in v) for v in start[:2])
            k = min(start[2], self.N)
        return self._newton_root(y, z, k) + (self.N,)

    def _fprime(self):
        """The derivative of the modulus, coefficients low degree first."""
        return [i * c for i, c in enumerate(self.modulus)][1:] + [self.d]

    def _horner(self, coeffs, x):
        """The polynomial with integer coefficients coeffs (low degree
        first) at x."""
        q = self.q
        acc = (coeffs[-1] % q,) + (0,) * (self.d - 1)
        for c in reversed(coeffs[:-1]):
            acc = self._wmul(acc, x)
            acc = ((acc[0] + c) % q,) + acc[1:]
        return acc

    def _newton_root(self, y, z, k):
        """(y, z): the root of the modulus f congruent to y, a root mod
        p^k, and z refined, for z an inverse of f'(y) mod p^ceil(k/2).

        Each step runs at the next precision P of _doubling(k): it refines
        z by one Newton step for the inverse, z <- z (2 - f'(y) z), which
        squares the error 1 - f'(y) z, and then sets y <- y - f(y) z.  A
        root mod p^ceil(P/2) with such a z gives one mod p^P, so the
        precision doubles per step and the step at P costs products mod
        p^P only: about two steps at full precision in all (von zur Gathen
        and Gerhard, Modern Computer Algebra, chapter 9).  The root is
        unique by Hensel's lemma.  Raises RuntimeError unless f(y) = 0
        mod p^N at the end."""
        f, fprime = list(self.modulus) + [1], self._fprime()
        two = (2,) + (0,) * (self.d - 1)
        for ring in self._doubling(k):
            mul, sub = ring._wmul, ring._wsub
            z = mul(z, sub(two, mul(ring._horner(fprime, y), z)))
            y = sub(y, mul(ring._horner(f, y), z))
        if any(self._horner(f, y)):
            raise RuntimeError("Frobenius lift did not converge")
        return y, z

    def _doubling(self, k, extra=0):
        """The rings (see _bare) at the precisions of a Newton iteration
        from a root mod p^k to one mod p^N whose step takes a root mod p^j
        to one mod p^(2j + extra): N, then each next one the least j with
        2j + extra at least the last, down to the last one above k,
        ascending."""
        precisions, P = [], self.N
        while P > k:
            precisions.append(P)
            P = (P - extra + 1) // 2
        return [self._bare(P) for P in reversed(precisions)]

    def _bare(self, N):
        """A ring at precision N <= self.N with only what products, powers
        and sums read: p, d, N, q and the reduction table mod p^N.  self at
        N itself."""
        if N == self.N:
            return self
        ring = RingContext.__new__(RingContext)
        ring.p, ring.d, ring.N, ring.q = self.p, self.d, N, self.p ** N
        ring.modulus = self.modulus
        ring._red = tuple(tuple([c % ring.q for c in row])
                          for row in self._red)
        return ring

    # -- raw coordinate kernels ----------------------------------------------

    def _wadd(self, a, b):
        q = self.q
        return tuple([(x + y) % q for x, y in zip(a, b)])

    def _wsub(self, a, b):
        q = self.q
        return tuple([(x - y) % q for x, y in zip(a, b)])

    def _wneg(self, a):
        q = self.q
        return tuple([(-x) % q for x in a])

    def _wmul(self, a, b):
        d = self.d
        if d == 1:
            return ((a[0] * b[0]) % self.q,)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return self._reduce(conv)

    def _reduce(self, conv):
        """Coordinates of the polynomial with coefficients conv (at most
        2d - 1 of them, low degree first) modulo the modulus and p^N."""
        d, q, red = self.d, self.q, self._red
        out = conv[:d]
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                row = red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return tuple([v % q for v in out])

    def _wpow(self, a, e):
        """a^e for reduced coordinates a, by square and multiply with no
        product by 1 and no square after the top bit; Python's pow at
        d = 1."""
        if self.d == 1:
            return (pow(a[0], e, self.q),)
        result = None
        while True:
            if e & 1:
                result = a if result is None else self._wmul(result, a)
            e >>= 1
            if not e:
                break
            a = self._wmul(a, a)
        return (1,) + (0,) * (self.d - 1) if result is None else result

    def _ival(self, c):
        """Valuation at p of the integer c, capped at N (so 0 gives N).

        A unit costs one modulo and valuation 1 two, as digit by digit;
        from 2 on it is a doubling search, about 2 log2(v) divisions for
        valuation v, not v of them.  While p^(2^k) divides what is left it
        is divided out, k = 0, 1, ...; when it first does not, the
        valuation left is below 2^k, and the powers p^(2^(k-1)), ..., p
        divided out where they divide give its binary digits.  The table
        goes up to p^(2^K) with 2^(K+1) > N, so a valuation of N or more
        reads as at least N."""
        p = self.p
        if c % p:
            return 0
        if not c:
            return self.N
        c //= p
        if c % p:
            return 1
        c //= p
        pows = self._ppow
        k = 0
        while k < len(pows):
            quo, rem = divmod(c, pows[k])
            if rem:
                break
            c = quo
            k += 1
        v = (1 << k) + 1
        for t in range(k - 1, -1, -1):
            quo, rem = divmod(c, pows[t])
            if not rem:
                c = quo
                v += 1 << t
        return min(v, self.N)

    def _wval(self, coords):
        """The least valuation of the coordinates, which is that of their
        gcd (0 when all are 0, which gives N)."""
        return self._ival(math.gcd(*coords))

    def _conjugate_product(self, a, sigma):
        """sigma(a) sigma^2(a) ... sigma^(d-1)(a), d - 2 products (1 when
        d = 1)."""
        r = None
        for _ in range(self.d - 1):
            a = sigma(a)
            r = a if r is None else self._wmul(r, a)
        return (1,) + (0,) * (self.d - 1) if r is None else r

    def _inv_mod_p(self, a, sigma):
        """Coordinates of an inverse of the unit a modulo p, from its norm
        (Itoh and Tsujii): sigma is a map that is the p-power map mod p,
        r is the product of the conjugates sigma^k(a), k = 1..d-1, and
        a r, the norm, lies in F_p mod p, so r (a r)^(-1) inverts a with
        d - 1 products whatever the size of p."""
        p = self.p
        r = self._conjugate_product(a, sigma)
        c = pow(self._wmul(a, r)[0], -1, p)
        return tuple(c * v % p for v in r)

    def _winv(self, a):
        v = self._wval(a)
        if v > 0:
            raise NonInvertibleError(v)
        b = self._inv_mod_p(a, self.frobenius_coords)
        one = (1,) + (0,) * (self.d - 1)
        two = (2,) + one[1:]
        for _ in range(self.N.bit_length() + 2):
            t = self._wmul(a, b)
            if t == one:
                return b
            b = self._wmul(b, self._wsub(two, t))
        raise RuntimeError("inverse iteration did not converge")

    def _apply_lin(self, table, coords):
        """Linear combination sum_i coords[i] * table[i], reduced mod p^N."""
        d, q = self.d, self.q
        out = [0] * d
        for i, c in enumerate(coords):
            if c:
                row = table[i]
                for j in range(d):
                    out[j] += c * row[j]
        return tuple([v % q for v in out])

    def frobenius_coords(self, coords, power=1):
        power %= self.d
        if power == 0:
            return tuple(coords)
        return self._apply_lin(self._frob[power], coords)

    # -- public constructors --------------------------------------------------

    def zero(self):
        return PadicScalar(self, (0,) * self.d)

    def one(self):
        return PadicScalar(self, (1,) + (0,) * (self.d - 1))

    def from_int(self, k):
        return PadicScalar(self, (k % self.q,) + (0,) * (self.d - 1))

    def scalar(self, coords):
        return PadicScalar(self, coords)

    def field_from_int(self, k):
        """Decode an integer in [0, p^d) into base-p field coordinates.
        Elements are memoized by code per context, up to _TEICH_MEMO_LIMIT
        of them."""
        cached = self._field_cache.get(k) if type(k) is int else None
        if cached is None:
            if not 0 <= k < self.p ** self.d:
                raise ValueError(
                    f"field element code {k} out of range [0, p^d)")
            cached = FieldElement(self, tuple((k // self.p ** i) % self.p
                                              for i in range(self.d)))
            if type(k) is int and len(self._field_cache) < _TEICH_MEMO_LIMIT:
                self._field_cache[k] = cached
        return cached

    def teichmuller(self, a):
        """Multiplicative lift of a residue field element: the unique
        solution of x^(p^d) = x with the given reduction, from one Newton
        root (_teich_root).  Lifts are memoized per context, up to
        _TEICH_MEMO_LIMIT of them.

        The lifts of F_Q^x, Q = p^d, form one cyclic group: a product of
        lifts is the lift of the product of the residues (roots of
        x^Q - x are closed under products, and the root over a residue is
        unique).  So a walk over the powers of one lift (_memo_powers)
        memoizes every lift at once: one root, for the least primitive
        element unless its lift is memoized already, and one product per
        other lift.  It runs once it costs no
        more than the roots run so far and the next: a lift other than 0
        and 1 that misses the memo walks when
        Q - 1 <= (r + 1) * N.bit_length() * Q.bit_length(), r the roots
        this context has run and the right side about their products, and
        only in a field the memo holds whole, Q <= _TEICH_MEMO_LIMIT.  At
        r = 0 this takes a small field, whose context runs one root in
        all; F_729 at N = 104 walks in place of its eleventh root.
        """
        if isinstance(a, PadicScalar):
            a = a.reduce_mod_p()
        if not isinstance(a, FieldElement):
            raise TypeError("teichmuller expects a residue field element")
        y = tuple(a.coords)
        cache = self._teich_cache
        cached = cache.get(y)
        if cached is None:
            Q = self.p ** self.d
            trivial = not any(y[1:]) and y[0] <= 1  # 0 and 1: themselves
            if not trivial and Q <= _TEICH_MEMO_LIMIT and Q - 1 <= (
                    self._roots + 1) * self.N.bit_length() * Q.bit_length():
                self._memo_powers()
                cached = cache.get(y)
            if cached is None:
                cached = PadicScalar(
                    self, y if trivial else self._teich_root(y))
                if len(cache) < _TEICH_MEMO_LIMIT:
                    cache[y] = cached
        return cached

    def _memo_powers(self):
        """Memoize [g]^k = [g^k], k = 0..Q-2, for the least primitive
        element g of F_Q (least by code): one root, none when g's lift is
        memoized already, and Q - 3 products.  Lifts already memoized keep
        their objects."""
        p, d, cache = self.p, self.d, self._teich_cache
        m = p ** d - 1
        field = self._bare(1)
        one = (1,) + (0,) * (d - 1)
        for code in range(2, m + 1):
            g = tuple((code // p ** i) % p for i in range(d))
            if all(field._wpow(g, m // r) != one for r in _prime_factors(m)):
                break
        x, t = one, (cache[g].coords if g in cache else self._teich_root(g))
        for k in range(m):
            if k:
                x = t if k == 1 else self._wmul(x, t)
            cache.setdefault(tuple([c % p for c in x]), PadicScalar(self, x))

    def _teich_root(self, y):
        """Coordinates of the lift t of the residue with coordinates y,
        neither 0 nor 1.

        t is the root of x^m = 1, m = p^d - 1 = Q - 1, congruent to y, and
        y is one mod p.  m is -1 mod p, a unit, and the step is Newton's
        for that root with x^m taken as 1 in the derivative,
        x <- x + x (1 - x^m) / m, so it needs no inverse.  It more than
        doubles the precision: for x = t (1 + e) the step gives
        x' = t (1 + e') with m e' = -sum_(2 <= j <= Q) C(Q, j) e^j, and
        C(Q, j) has valuation d - v_p(j), so v(e) >= k gives
        v(e') >= min_j (jk + d - v_p(j)) >= 2k + d - 1 (jk - v_p(j) is
        least at j = 2).  The steps run at the precisions of
        _doubling(1, d - 1), each one power x^m mod p^P: about two powers
        at full precision in all.  Raises RuntimeError unless x^m = 1 mod
        p^N at the end."""
        self._roots += 1
        m = self.p ** self.d - 1
        minv = pow(m, -1, self.q)
        one = (1,) + (0,) * (self.d - 1)
        x = y
        for ring in self._doubling(1, self.d - 1):
            q = ring.q
            e = ring._wsub(one, ring._wpow(x, m))
            x = ring._wadd(x, ring._wmul(x, tuple([c * minv % q for c in e])))
        if self._wpow(x, m) != one:
            raise RuntimeError("Teichmuller iteration did not converge")
        return x

    def at_precision(self, N2):
        """Same extension at a different truncation level.

        The new context is derived from this one: the capacity check for
        N2 runs first, before p^N2 is formed; the modulus is reused
        without a second irreducibility test; and the Frobenius root's
        Newton iteration starts from this context's root and its carried
        inverse, reduced mod p^N2.  That start is already exact when
        N2 <= N, and otherwise it needs the steps above precision N only,
        about log2(N2 / N) of them.  At d = 2 no iteration runs: the root
        is -a_1 - x in closed form (see _hensel_root) and the carried
        inverse is unused.  The lift is unique, so the tables equal those
        of RingContext(p, d, N2, modulus).
        """
        if N2 == self.N:
            return self
        cached = self._prec_cache.get(N2)
        if cached is None:
            _check_capacity(self.p, self.d, N2)
            cached = RingContext._trusted(self.p, self.d, self.modulus, N2,
                                          self._root)
            self._prec_cache[N2] = cached
        return cached

    # -- identity and serialization -------------------------------------------

    def params(self):
        return (self.p, self.d, self.N, self.modulus)

    def residue_params(self):
        return (self.p, self.d, self.modulus)

    def __eq__(self, other):
        return isinstance(other, RingContext) and self.params() == other.params()

    def __hash__(self):
        return hash(self.params())

    def __repr__(self):
        return f"RingContext(p={self.p}, d={self.d}, N={self.N})"

    def to_json(self):
        return {"p": self.p, "d": self.d, "N": self.N,
                "modulus": list(self.modulus) + [1]}


def context_from_json(obj):
    """The context of a to_json document.  Raises KeyError for a missing
    field, TypeError unless p, d, N and the modulus's coefficients are
    ints, and ValueError (CapacityError included) for a value
    make_context refuses or a modulus that is not monic, of degree d,
    with coefficients in [0, p) and irreducible; every check but the last
    runs before any table is built."""
    p, d, N, coeffs = obj["p"], obj["d"], obj["N"], obj["modulus"]
    if not isinstance(coeffs, list) or not all(
            isinstance(c, int) and not isinstance(c, bool)
            for c in (p, d, N, *coeffs)):
        raise TypeError("context p, d, N and modulus must be integers")
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("modulus must be monic")
    _check_params(p, d, N)
    return RingContext(p, d, N, coeffs[:-1])


def make_context(p, d, N):
    """Context for W_N(F_{p^d}) with the canonical modulus polynomial.

    Deterministic across runs: the modulus is the lexicographically smallest
    monic degree-d polynomial over F_p that is irreducible, lifted with
    coefficients in [0, p).
    """
    _check_params(p, d, N)
    return RingContext._trusted(p, d, _first_irreducible(p, d), N)


def _check_params(p, d, N):
    """Raise ValueError (CapacityError) unless make_context accepts
    (p, d, N); cheap, so a caller can check before any other work."""
    if isinstance(p, int) and p >= _PRIME_LIMIT:
        raise ValueError(f"p must be below {_PRIME_LIMIT}, got {p}")
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_capacity(p, d, N)


# ---------------------------------------------------------------------------
# elements


class _Element:
    """Shared arithmetic of PadicScalar and FieldElement, a coordinate
    vector in the power basis, behind three hooks: _modulus(ctx), which
    coordinates are reduced by on construction; _ring(), the context whose
    raw kernels compute, looked up only when an operation runs; and
    _key(), what two elements must share to be combined or equal."""

    __slots__ = ("ctx", "coords")
    _mismatch = ""

    def __init__(self, ctx, coords):
        self.ctx = ctx
        m = self._modulus(ctx)
        self.coords = tuple(int(c) % m for c in coords)
        if len(self.coords) != ctx.d:
            raise ValueError("coordinate vector has wrong length")

    def _new(self, coords):
        """An element like self with the given reduced coordinates."""
        out = object.__new__(type(self))
        out.ctx, out.coords = self.ctx, coords
        return out

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other._key() != self._key():
                raise ValueError(self._mismatch)
            return other
        if isinstance(other, int):
            return type(self)(self.ctx, (other,) + (0,) * (self.ctx.d - 1))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self._ring()._wadd(self.coords, other.coords))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self._ring()._wsub(self.coords, other.coords))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._new(self._ring()._wneg(self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(self._ring()._wmul(self.coords, other.coords))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; the element must be a unit."""
        return self._new(self._ring()._winv(self.coords))

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        return (isinstance(other, type(self)) and self._key() == other._key()
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self._key(), self.coords))


class PadicScalar(_Element):
    """Element of W_N(F_{p^d}): a coordinate vector in the power basis."""

    __slots__ = ()
    _mismatch = "scalars from different contexts"

    @staticmethod
    def _modulus(ctx):
        return ctx.q

    def _ring(self):
        return self.ctx

    def _key(self):
        return self.ctx.params()

    def frobenius(self, power=1):
        """The Frobenius lift: reduces to the p-power map mod p and has
        exact order d."""
        return self._new(self.ctx.frobenius_coords(self.coords, power))

    def valuation(self):
        """Largest v <= N with x = 0 mod p^v; the value N is the ">= N"
        sentinel and consumers must treat it as possibly nonzero beyond
        the working precision."""
        return self.ctx._wval(self.coords)

    def is_unit(self):
        return self.ctx._wval(self.coords) == 0

    def reduce_mod_p(self):
        return FieldElement(self.ctx, self.coords)

    def to_json(self):
        return {"coords": [str(c) for c in self.coords]}

    def __repr__(self):
        return f"W({list(self.coords)})"


def scalar_from_json(ctx, obj):
    """The scalar of a to_json document, whose coords are ints or their
    decimal strings: KeyError without coords, TypeError for another
    type, ValueError for a bad string or count."""
    coords = obj["coords"]
    if not isinstance(coords, list) or not all(
            type(c) in (int, str) for c in coords):
        raise TypeError("coords must be integers or decimal strings")
    return PadicScalar(ctx, tuple([int(c) for c in coords]))


class FieldElement(_Element):
    """Element of the residue field F_{p^d} of a context.

    Its ctx is the context it was made from, at any precision.  Arithmetic
    runs on that context at precision 1, whose ring W_1(F_{p^d}) is the
    field: its tables are those of any precision reduced mod p, since
    reducing mod p commutes with the integer recurrences that build them.
    Elements over one field are equal, and combine, whatever the
    precision of their contexts.  Not a PadicScalar, so teichmuller tells
    the two apart."""

    __slots__ = ()
    _mismatch = "elements of different fields"

    @staticmethod
    def _modulus(ctx):
        return ctx.p

    def _ring(self):
        return self.ctx.at_precision(1)

    def _key(self):
        return self.ctx.residue_params()

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        return self._new(self._ring()._wpow(base.coords, abs(e)))

    def __bool__(self):
        return any(self.coords)

    def to_int(self):
        """Encode as sum(c_i * p^i), the inverse of field_from_int."""
        return sum(c * self.ctx.p ** i for i, c in enumerate(self.coords))

    def __repr__(self):
        return f"F({list(self.coords)})"
