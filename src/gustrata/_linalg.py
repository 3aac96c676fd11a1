"""Matrix kernels over truncated Witt rings.

Internal module: division-free characteristic polynomials (Berkowitz),
Frobenius-twisted matrix products, the inverse of F by valuation-pivoted
elimination, lower convex hulls for Newton polygons, and ranks over the
residue field F_{p^d}.  Raw coordinate data (plain ints when d == 1,
coordinate tuples otherwise) is used throughout; the coefficient ring
Z/p^N has zero divisors, so nothing here divides by a non-unit except
where p^k is known to divide exactly (see adjugate_action).

Display matrices are sparse (a rank-16 deformation display has 26 nonzero
entries out of 256), and so are the vectors the kernels iterate on.  Each
ops class has one sparse primitive, smatvec(cols, w): the product M * w for
M given by its columns as (row, value) pairs and w a dict holding only the
nonzero entries.  It adds up each output entry's raw products and reduces
once, and it leaves out entries that reduce to zero.  The products of the
kernels run on it: Berkowitz's Krylov vectors A^i C and their products
with the bordering row, the rows of the back substitution in
adjugate_action, Berkowitz's product of two polynomials (multiplication
by a polynomial is a matrix whose columns are its shifts) and mat_mul, one
column at a time.  This is exact, not an approximation:

* support tracking: an index missing from a dict holds exactly 0 in Z/p^N
  or W_N, so a product that would read it contributes exactly 0, and
  smatvec forms only the products whose factors are both nonzero;
* early stopping: once A^i C is the zero vector, so is every A^k C after
  it, and the Berkowitz terms -R A^k C it would give are exactly 0;
* reducing once per entry: a sum of integer products reduced mod p^N (or,
  for d > 1, a sum of polynomial products, of degree at most 2d - 2,
  reduced modulo the modulus polynomial and p^N) is the same residue as
  the sum of the products reduced one by one.

Newton polygons are read block by block (lane_slope_pairs, which also
states their certificate): the strongly connected components of the graph
with an edge i -> j for each nonzero M[i][j] put M into block
upper-triangular form, and the polygon of det(xI - M) is the union of the
polygons of its diagonal blocks, so no polynomial product is formed.
charpoly, the whole det(xI - M), is one Berkowitz run on the whole matrix.
The valuations, hulls and certificate are read from coefficient lists
(coefficient_slope_pairs).  A monic polynomial of degree n whose
coefficient of y^(n-k) is p^(k-1) times an integer u_k, and whose
constant term has valuation n, needs neither Berkowitz nor valuations:
its polygon is read off which u_k are units (unit_slope_pairs).  A sweep at d <= 2 reads them mod p off the
deformation template in closed form (displayzoo._template_charpoly), and
sweeps run Berkowitz only at d >= 3.

Both take the sparse rows of their matrix and twisted_product the sparse
columns of its factors, so the display's stored sparse data feeds the
twisted Newton polygon with no dense matrix in between: twisted_factors
twists the display's columns into the factors sigma^k(A), and column j of
A * sigma(A) * ... * sigma^k(A) is the product up to sigma^(k-1) applied to
column j of sigma^k(A), one smatvec.  A sweep at d >= 3 fills its
factors already twisted (displayzoo._template_lanes).  mat_mul still
takes dense rows.
Every kernel returns exactly what the dense computation would: the ring
is exact, so skipping zero terms, reordering sums and reducing by
polynomial identities changes no coefficient.

A third ops class, _LaneOps, runs the slope kernels (twisted_product,
_berkowitz and poly_mul, unchanged) on many matrices at once, as a
sweep's points need: a lane value is a tuple of one scalar per matrix,
and every operation acts lane by lane, so one call costs the interpreter
overhead of one matrix and the arithmetic of all of them.  The lane
matrix has the union of the lanes' supports, and its zero is the
all-zero lane, so the kernels skip an entry, or stop early, only when it
vanishes in every lane.  That changes no lane's result: an entry that
vanishes in one lane contributes exactly 0 to that lane's sums, and a
vector that vanishes in a lane stays 0 there.  lane_slope_pairs reads
each lane's polygon from the blocks of the union support (its docstring
shows they give the lane's own polygon and certificate).  A single
display runs the same kernels on the base ops, which have width 1 and
read the valuations of their one lane with vals, so its raw entries need
no packing.

A lane scalar is one int for every d.  At d == 1 it is a signed int in
(-q, q), q = p^N, congruent to the raw int: pack takes r in [0, q) to
r - q when 2r > q, unpack takes x mod q, and neg is plain negation.
smatvec reduces an output entry, every lane mod q, only when one of its
lanes leaves (-q, q), which one max and one min across the lanes
decide.  Every stored value stays in (-q, q), so a lane is 0
exactly when it is 0 mod q, and entry dropping and early stopping are
those of the reduced ints.  At p <= 3 the lifts of F_p are 0 and +-1 and
the deformation template's constants +-1 and +-p, so small sweeps never
reduce.  At d > 1, c_0 + c_1 x + ... + c_(d-1) x^(d-1) with coordinates
reduced into [0, q), q = p^N, is packed as sum c_i 2^(B i), d slots of B
bits (Kronecker substitution: von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 8), so one integer product holds the 2d - 1 coefficients of
a polynomial product in its slots, and smatvec is the d == 1 loop of
products and sums.  No slot may carry into the next:

* a coefficient of one product is a sum of at most d terms c_i c_j, each
  at most (q - 1)^2, and an output entry of smatvec sums at most T
  products, T the size given to _LaneOps, the number of rows of the lane
  matrix: a column of twisted_product's factors, a vector of a Berkowitz
  block and the shorter factor of a poly_mul in Berkowitz (t + 1 terms
  at step t) have at most that many entries, and a sum of the
  closed-form charpoly of a sweep at d <= 2 at most h + 1 <= n of them,
  for T = n (displayzoo._template_charpoly), whose add sums two reduced
  values, at most 2 (q - 1) per slot;
* the reduction, once per output entry, folds each top slot
  k = 2d - 2, ..., d, taken mod q, times the packed x^d mod the modulus
  into slots k - d .. k - 1 (x^k = x^(k-d) x^d), top slot first, which
  adds at most d - 1 terms below (q - 1)^2 to any slot, and then takes
  each of the d slots mod q.

So B is the bit length of (T d + d - 1)(q - 1)^2: T d (q - 1)^2 plus
(d - 1)(q - 1)^2 from the folds lies below 2^B.  The reduction runs
across all lanes in list passes, one per fold and per slot.  neg is the
reduction of (q, ..., q) packed minus the value, frob the sum of slot i
times the packed image of x^i under the power of sigma, reduced, and a
lane's valuation is that of the gcd of its slots.  vals reads a lane
that p does not divide as a unit, at every d, and any other through the
gcd of q and the lane (its slots at d > 1), a power p^v whose v is
memoized when it is first met.

pivot_steps (behind adjugate_action), det_valuation and rank share one
elimination on sparse dict rows, _eliminate, which takes at each step an
entry of least valuation in the remaining matrix as its pivot.  Over W_N
that keeps every Schur complement exact mod p^N and finds val det and
p^v A^(-1) without a characteristic polynomial (proof in
adjugate_action); no block structure is needed, since a pivot alone in
its row and column eliminates nothing, so a monomial or block-diagonal
matrix costs O(nonzeros) plus a heap.  It runs on F once per display,
or once per distinct summand of a direct sum, which reads its invariants
from its summands (fcrystal._parts); the pivots give val det A, the
integrality of V, the rank of F mod p (the a-number and the signature)
and the adjugate behind V.  It runs on J, likewise, for val det J in the
pairing check; and, at precision 1, where the ring
W_1(F_{p^d}) is the field itself and every nonzero entry is a unit pivot,
it gives ranks over F_{p^d}: the number of pivots is the rank; truncate
reduces any finer raw data into it.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import add as _add, lshift as _lshift, mul as _mul


class _IntOps:
    """Raw arithmetic for d == 1: scalars are plain ints mod p^N."""

    d = width = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.q = ctx.q
        self.cap = ctx.N
        self.zero = 0
        self.one = 1
        self.val = ctx._ival

    def unwrap(self, scalar):
        return scalar.coords[0]

    def vals(self, a):
        """[val(a)]: a single matrix is one lane (see _LaneOps.vals)."""
        return [self.val(a)]

    def wrap(self, raw):
        return self.ctx.scalar((raw,))

    def neg(self, a):
        return (-a) % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def scale(self, k, a):
        """k * a for an integer k."""
        return k * a % self.q

    def smatvec(self, cols, w):
        """M * w for the matrix M given by its columns as lists of (row,
        value) pairs and the sparse vector w, a dict from index to nonzero
        value.  Each entry's products are summed and reduced once; entries
        that reduce to zero are dropped."""
        acc = {}
        get = acc.get
        for j, b in w.items():
            for i, a in cols[j]:
                acc[i] = get(i, 0) + a * b
        q = self.q
        return {i: e for i, s in acc.items() if (e := s % q)}

    def truncate(self, a):
        """Raw data of any finer precision, reduced mod p^N."""
        return a % self.q

    def is_zero(self, a):
        return a == 0

    def frob(self, a, power=1):
        return a

    def inv(self, a):
        """Inverse of a unit."""
        return pow(a, -1, self.q)

    def divexact_p(self, a, k):
        """a / p^k on the integer coordinates, for k >= -1: exact when p^k
        divides them; for k = -1, p * a unreduced."""
        p = self.p
        return a * p // p ** (k + 1)


class _ExtOps:
    """Raw arithmetic for d >= 2: scalars are length-d coordinate tuples."""

    width = 1
    vals = _IntOps.vals

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.q = ctx.q
        self.d = ctx.d
        self.cap = ctx.N
        self.zero = (0,) * ctx.d
        self.one = (1,) + (0,) * (ctx.d - 1)
        self.neg = ctx._wneg
        self.add = ctx._wadd
        self.sub = ctx._wsub
        self.mul = ctx._wmul
        self.inv = ctx._winv
        self.val = ctx._wval

    def unwrap(self, scalar):
        return scalar.coords

    def wrap(self, raw):
        return self.ctx.scalar(raw)

    def scale(self, k, a):
        """k * a for an integer k: it scales every power-basis coordinate."""
        q = self.q
        return tuple(k * c % q for c in a)

    def smatvec(self, cols, w):
        """M * w for the matrix M given by its columns as lists of (row,
        value) pairs and the sparse vector w, a dict from index to nonzero
        value.  Each entry gets one convolution buffer and one reduction;
        entries that reduce to zero are dropped."""
        width = 2 * self.d - 1
        acc = {}
        for j, b in w.items():
            b = [(k, bk) for k, bk in enumerate(b) if bk]
            for i, a in cols[j]:
                conv = acc.get(i)
                if conv is None:
                    conv = acc[i] = [0] * width
                for s, a_s in enumerate(a):
                    if a_s:
                        for k, bk in b:
                            conv[s + k] += a_s * bk
        zero, reduce = self.zero, self.ctx._reduce
        return {i: e for i, conv in acc.items() if (e := reduce(conv)) != zero}

    def truncate(self, a):
        """Raw data of any finer precision, reduced mod p^N."""
        q = self.q
        return tuple(c % q for c in a)

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def frob(self, a, power=1):
        return self.ctx.frobenius_coords(a, power)

    def divexact_p(self, a, k):
        """a / p^k on the integer coordinates, for k >= -1: exact when p^k
        divides them; for k = -1, p * a unreduced."""
        p = self.p
        pk = p ** (k + 1)
        return tuple(c * p // pk for c in a)


def ops_for(ctx):
    return _IntOps(ctx) if ctx.d == 1 else _ExtOps(ctx)


class _LaneOps:
    """Raw arithmetic on lanes: a lane value is a tuple of width scalars,
    one per matrix of a batch of matrices of at most size rows, and every
    operation acts lane by lane.  Only what twisted_factors,
    twisted_product, _berkowitz, poly_mul and the closed-form charpoly of
    a sweep (displayzoo._template_charpoly) use is provided, and vals,
    which coefficient_slope_pairs reads; add is the closed form's alone.
    A batch of displays, or a sweep's chunk of points, runs here at any
    width, a chunk of one point included; a single display runs on the
    base ops.  A scalar is a signed int in (-q, q), q = p^N, congruent to
    the base ops' raw int at d == 1, and the packed coordinates at d >= 2
    (see the module docstring for both); pack, unpack and packed convert
    at the boundary.
    The zero is the all-zero lane, so a kernel skips an entry, or stops
    early, only when it vanishes in every lane, and each lane gets exactly
    what the base ops would give for its own matrix."""

    def __init__(self, base, width, size):
        self.base, self.width = base, width
        self.zero, self.one = (0,) * width, (1,) * width
        ctx, q, d = base.ctx, base.q, base.ctx.d
        self.p, self.q, self.d = ctx.p, q, d
        self._powers = _Powers(ctx._ival)
        if d == 1:  # signed ints, sigma the identity
            self._frob = [None]
            return
        B = ((size * d + d - 1) * (q - 1) ** 2).bit_length()
        self._shifts, self._mask = [B * i for i in range(d)], (1 << B) - 1
        self._qpack = self.pack((q,) * d)
        row = self.pack(ctx._red[0])  # x^d
        self._folds = [((1 << B * k) - 1, B * k, row << B * (k - d))
                       for k in range(2 * d - 2, d - 1, -1)]
        self._frob = [None] + [list(map(self.pack, t)) for t in ctx._frob[1:]]

    def pack(self, raw):
        """One lane's scalar from the base ops' raw scalar."""
        if self.d == 1:
            return raw - self.q if 2 * raw > self.q else raw
        return sum(map(_lshift, raw, self._shifts))

    def unpack(self, x):
        """The base ops' raw scalar of one lane's scalar."""
        if self.d == 1:
            return x % self.q
        mask = self._mask
        return tuple([x >> s & mask for s in self._shifts])

    def packed(self, lines):
        """Sparse lines (rows or columns) of lane values whose lanes hold the
        base ops' raw scalars, with each lane packed."""
        if self.d == 1:
            q = self.q
            return [[(i, tuple([x - q if 2 * x > q else x for x in e]))
                     for i, e in line] for line in lines]
        shifts = self._shifts
        return [[(i, tuple([sum(map(_lshift, x, shifts)) for x in e]))
                 for i, e in line] for line in lines]

    def vals(self, a):
        """The valuation of each lane of the lane value a, capped at N.  A
        lane that p does not divide is a unit: at d >= 2 some slot is
        prime to p.  Any other lane's valuation is that of g = p^v, the
        gcd of q and the lane (of its slots at d >= 2), read from _Powers."""
        p, q, powers = self.p, self.q, self._powers
        if self.d == 1:
            return [powers[gcd(x, q)] if not x % p else 0 for x in a]
        mask, shifts = self._mask, self._shifts
        return [powers[gcd(q, *[x >> s & mask for s in shifts])]
                if not x % p else 0 for x in a]

    def add(self, a, b):
        if self.d == 1:
            return self._signed(list(map(_add, a, b)))
        return self._reduce(list(map(_add, a, b)), ())

    def neg(self, a):
        if self.d == 1:
            return tuple([-x for x in a])
        qpack = self._qpack
        return self._reduce([qpack - x for x in a], ())

    def frob(self, a, power=1):
        rows = self._frob[power % self.d]
        if rows is None:
            return a
        mask = self._mask
        out = [x & mask for x in a]  # sigma(1) = 1
        for s, r in zip(self._shifts[1:], rows[1:]):
            out = [o + (x >> s & mask) * r for o, x in zip(out, a)]
        return self._reduce(out, ())

    def _signed(self, s):
        """The signed lane values s (d == 1) as a tuple, every lane taken
        mod q when one of them lies outside (-q, q)."""
        q = self.q
        if max(s) < q and min(s) > -q:
            return tuple(s)
        return tuple([x % q for x in s])

    def _reduce(self, s, folds):
        """The lane values s, packed but unreduced, reduced (d >= 2): each
        (low, shift, row) of folds adds the slot at shift, mod p^N, times
        row to the slots below it, top slot first; then each slot is taken
        mod p^N.  One list pass per step."""
        q, mask, shifts = self.q, self._mask, self._shifts
        for low, sh, row in folds:
            s = [(x & low) + (x >> sh) % q * row for x in s]
        top = shifts[-1]
        out = [(x >> top) % q << top for x in s]
        for sh in shifts[:-1]:
            out = [o | (x >> sh & mask) % q << sh for o, x in zip(out, s)]
        return tuple(out)

    def smatvec(self, cols, w):
        """M * w lane by lane: each output entry sums its products in every
        lane, one integer product per lane, and is reduced at most once (at
        d == 1 only when a lane leaves (-q, q)); entries that vanish in
        every lane are dropped."""
        acc = {}
        get = acc.get
        for j, b in w.items():
            for i, a in cols[j]:
                s = get(i)
                acc[i] = (list(map(_mul, a, b)) if s is None
                          else list(map(_add, s, map(_mul, a, b))))
        zero = self.zero
        if self.d == 1:
            signed = self._signed
            return {i: e for i, s in acc.items()
                    if (e := signed(s)) != zero}
        reduce, folds = self._reduce, self._folds
        return {i: e for i, s in acc.items()
                if (e := reduce(s, folds)) != zero}


class _Powers(dict):
    """Valuations by power of p: the key p^v, v at most N, gives v, read
    by the valuation val (which caps at N) when it is first asked for.
    Only the powers met are held: a table of all N + 1 of them would hold
    about N^2 log2(p) / 2 bits."""

    def __init__(self, val):
        super().__init__()
        self._val = val

    def __missing__(self, g):
        v = self[g] = self._val(g)
        return v


# ---------------------------------------------------------------------------
# matrices (lists of rows of raw scalars)


def mat_mul(ops, a, b):
    """Product a * b, one column at a time: column j is the sparse
    matrix-vector product of a with the nonzero entries of column j of b."""
    zero, smatvec = ops.zero, ops.smatvec
    cols = sparse_transpose(sparse_rows(ops, a), len(b))
    out = [[zero] * len(b[0]) for _ in a]
    for j, bcol in enumerate(zip(*b)):
        w = {t: e for t, e in enumerate(bcol) if e != zero}
        for i, e in smatvec(cols, w).items():
            out[i][j] = e
    return out


def twisted_factors(ops, cols, length, odd=None):
    """The sparse columns of the factors sigma^k(Z_k), k < length, of a
    twisted product, where Z_k has the sparse columns cols for even k and
    odd (cols again by default) for odd k.

    With the default their product is A * sigma(A) * ... * sigma^(d-1)(A),
    the d-fold linearization of a sigma-semilinear operator with matrix A
    for length d.  For a graded F with blocks X (v-part to u-part) and Y
    (u-part to v-part), cols = X and odd = Y give X sigma(Y) sigma^2(X) ...,
    whose factors pair up into sigma^(2m) of G = X sigma(Y), the matrix of
    F^2 on the u-part.  sigma is an automorphism, so it keeps nonzero
    entries nonzero."""
    factors, frob = (cols, cols if odd is None else odd), ops.frob
    return [cols] + [[[(i, frob(a, k)) for i, a in col]
                      for col in factors[k % 2]] for k in range(1, length)]


def twisted_product(ops, factors):
    """Sparse rows of the product T = W_0 * W_1 * ... of square matrices
    W_k given by their sparse columns, the factors of a twisted product
    already twisted: twisted_factors gives them from a display's blocks,
    and a sweep reads them straight off the Teichmuller lifts
    (displayzoo._template_lanes).

    With T_0 = W_0 and T_k = T_(k-1) * W_k, column j of T_k is T_(k-1)
    applied to column j of W_k: one smatvec per column and step."""
    out, smatvec = factors[0], ops.smatvec
    for factor in factors[1:]:
        out = [smatvec(out, dict(col)).items() for col in factor]
    return sparse_transpose(out, len(factors[0]))


def sparse_rows(ops, rows):
    """Each row's nonzero entries as (column, value) pairs, columns
    ascending."""
    zero = ops.zero
    return [[(j, e) for j, e in enumerate(row) if e != zero] for row in rows]


def sparse_transpose(srows, ncols):
    """Sparse columns, as (row, value) pairs with rows ascending, of the
    matrix with ncols columns given by its sparse rows (and, read the other
    way, sparse rows from sparse columns)."""
    cols = [[] for _ in range(ncols)]
    for i, srow in enumerate(srows):
        for j, a in srow:
            cols[j].append((i, a))
    return cols


def strongly_connected_components(adj):
    """Strongly connected components of the graph on 0..len(adj)-1 with an
    edge i -> j for every j in adj[i] (Tarjan's algorithm, iterative).

    Components are lists of vertices, listed sinks first: each comes after
    every component it reaches.
    """
    n = len(adj)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] is None:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(adj[nxt])))
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    comps.append(comp)
    return comps


def _blocks(srows):
    """Diagonal blocks of the SCC order of a matrix given by sparse rows:
    index lists, sources first, so that every nonzero entry (i, j) has the
    block of i at or before the block of j.

    Within a block the indices keep Tarjan's order, the reverse of their
    discovery order.  Any order gives the same polynomials; on the 8 x 8
    matrices of F^2 of 60 random rank-16 deformation displays (p = 3,
    d = 1) this one needs 1728 sparse products in Berkowitz against 2732
    in ascending order."""
    comps = strongly_connected_components([[j for j, _ in row]
                                           for row in srows])
    return comps[::-1]


def _restrict(srows, idx):
    """Sparse rows of the principal submatrix on the indices idx, in that
    order, renumbered 0..len(idx)-1."""
    pos = {i: t for t, i in enumerate(idx)}
    return [[(pos[j], a) for j, a in srows[i] if j in pos] for i in idx]


def poly_mul(ops, a, b, terms):
    """The first terms coefficients of the product of two coefficient
    lists listed in the same degree order.  Multiplication by b is the
    matrix whose column i is b shifted up by i, so the product is one
    sparse matrix-vector product: zero coefficients are skipped and each
    output term is summed and reduced once."""
    zero = ops.zero
    a = {i: c for i, c in enumerate(a) if c != zero}
    b = [(j, c) for j, c in enumerate(b) if c != zero]
    cols = {i: [(i + j, c) for j, c in b if i + j < terms] for i in a}
    prod = ops.smatvec(cols, a)
    return [prod.get(k, zero) for k in range(terms)]


def _berkowitz(ops, srows):
    """det(xI - M) for the matrix M with the given sparse rows, high degree
    first, by the Berkowitz algorithm (division-free, sound over Z/p^N).

    Step t borders the leading t x t block A with row and column t.  Its
    polynomial is x - M[t][t], then -R A^i C for i = 0..t-1, where C and R
    are column and row t cut to the block.  The Krylov vectors A^i C are
    sparse, so only the products that can be nonzero are formed: a step
    whose R or C is zero has just x - M[t][t], and the products stop once
    A^i C vanishes, since every later term is zero as well.
    """
    r = len(srows)
    zero, neg, smatvec = ops.zero, ops.neg, ops.smatvec
    cols = sparse_transpose(srows, r)
    diag = [zero] * r
    for i, srow in enumerate(srows):
        for j, a in srow:
            if j == i:
                diag[i] = a
    lead = [[] for _ in range(r)]  # sparse columns of the leading block
    poly = [ops.one, neg(diag[0])]
    for t in range(1, r):
        # grow the leading block by index t - 1
        lead[t - 1] = [(i, a) for i, a in cols[t - 1] if i < t - 1]
        for j, a in srows[t - 1]:
            if j < t:
                lead[j].append((t - 1, a))
        items = [ops.one, neg(diag[t])]
        row = [()] * t  # row t cut to the block: columns of a 1 x t matrix
        for j, a in srows[t]:
            if j < t:
                row[j] = ((0, a),)
        w = {i: a for i, a in cols[t] if i < t}
        if w and any(row):
            for i in range(t):
                if i:
                    w = smatvec(lead, w)
                    if not w:
                        break
                items.append(neg(smatvec(row, w).get(0, zero)))
        poly = poly_mul(ops, items, poly, t + 2)
    return poly


def charpoly(ops, srows):
    """Coefficients of det(xI - M), low degree first, for the matrix M
    given by its sparse rows ([1] for the 0 x 0 matrix)."""
    return _berkowitz(ops, srows)[::-1] if srows else [ops.one]


def _eliminate(ops, rows, ncols):
    """Gaussian elimination with least-valuation pivoting on sparse rows,
    dicts from column to nonzero raw entry, changed in place.  Only columns
    below ncols are pivoted; any others are carried along.

    Each step takes an entry a = p^k u (u a unit) of least valuation k in
    the rows and columns not yet pivoted, lowest (k, row, column) first,
    and clears its column from every other unpivoted row i:
    row_i <- row_i - f * pivot row with f = (row_i[c] / p^k) * u^(-1).
    Every entry of the remaining matrix has valuation >= k, so p^k divides
    its coordinates exactly and f is integral.  Valuations in the remaining
    matrix never drop below k, so the pivot valuations k ascend.

    Returns (steps, v): one (column, k, u^(-1), pivot row without its
    pivot entry) per pivot, in order, and v the sum of the k, except that
    it stops with v = ops.cap once that sum reaches it.  Each distinct
    unit u is inverted once per call: the pivots of a display's F are
    mostly +-1 or +-p."""
    cap, zero = ops.cap, ops.zero
    val, mul, sub, divexact_p = ops.val, ops.mul, ops.sub, ops.divexact_p
    inverses = {}
    holders = [set() for _ in range(ncols)]  # unpivoted rows per column
    heap = []
    for i, row in enumerate(rows):
        for j, a in row.items():
            if j < ncols:
                holders[j].add(i)
                heap.append((val(a), i, j))
    heapq.heapify(heap)
    steps, v = [], 0
    while heap:
        k, i, c = heapq.heappop(heap)
        row = rows[i]
        if row is None or val(row.get(c, zero)) != k:
            continue  # pivoted row, or an entry changed since it was pushed
        v += k
        if v >= cap:
            return steps, cap
        rows[i] = None
        unit = divexact_p(row.pop(c), k)
        unit_inv = inverses.get(unit)
        if unit_inv is None:
            unit_inv = inverses[unit] = ops.inv(unit)
        for j in row:
            if j < ncols:
                holders[j].discard(i)
        for t in holders[c]:
            other = rows[t]
            if other is None:
                continue
            f = mul(divexact_p(other.pop(c), k), unit_inv)
            for j, b in row.items():
                e = sub(other.get(j, zero), mul(f, b))
                if e != zero:
                    other[j] = e
                    if j < ncols:
                        holders[j].add(t)
                        heapq.heappush(heap, (val(e), t, j))
                elif other.pop(j, None) is not None and j < ncols:
                    holders[j].discard(t)
        holders[c] = ()
        steps.append((c, k, unit_inv, row))
    return steps, v


def pivot_steps(ops, cols):
    """The steps of _eliminate on the rows of [A | I], for the square
    matrix A with the given sparse columns, pivoting only A's columns.

    They are the same pivots, in the same order, as an elimination of A
    alone: the heap holds only entries of A's columns, and the carried
    columns of I only collect the row operations.  There are fewer steps
    than rows exactly when det A = 0 mod p^N; otherwise val det A is the
    sum of their valuations k and lies below N (see adjugate_action)."""
    r = len(cols)
    rows = [{r + i: ops.one} for i in range(r)]
    for j, col in enumerate(cols):
        for i, a in col:
            rows[i][j] = a
    return _eliminate(ops, rows, r)[0]


def adjugate_action(ops, cols, steps):
    """(v, W) for the square matrix A over W_N with the given sparse
    columns and steps = pivot_steps(ops, cols): v = val det A, capped at
    N, and, when v < N, the sparse rows of W = p^v A^(-1) = adj(A) / u,
    the adjugate up to the unit u = det A / p^v, each a list of (column,
    raw) pairs with columns ascending and no zero; W is None when v = N.

    pivot_steps runs _eliminate on the rows of [A | I].  With E the
    accumulated row operations (the right half), E A = U, where the pivot
    row of step t, r_t, holds the pivot pi_t = p^(k_t) u_t at column c_t
    and otherwise entries at the columns pivoted later, all of valuation
    >= k_t.  Then

    * the Schur complements are exact mod p^N: for any lift of A to W (and
      the same pivots) they reduce to the computed ones.  By induction, let
      S be a lift of the remaining matrix; its pivot column divided by p^k
      and u^(-1) are known mod p^(N-k), so f is known mod p^(N-k), and it
      multiplies the pivot row, whose entries have valuation >= k: the
      error f * row is 0 mod p^N.  Hence v = val det A = sum k_t below N,
      as det E = 1 and det U = +-prod pi_t; a step with no nonzero entry
      left, or a sum reaching N, means det A = 0 mod p^N, v = N.
    * back substitution loses at most m = max k_t digits, and m <= 1 when
      p A^(-1) is integral.  Write U = D T with D = diag(pi_t) and T the
      rows of U divided by their pivots: T is integral (every entry of a
      pivot row has valuation >= k_t) and unitriangular in pivot order, so
      A^(-1) = T^(-1) D^(-1) E with T^(-1) and E integral.  The only
      denominators are the p^(-k_t) of D^(-1), so val A^(-1) >= -m.
      Conversely D^(-1) = T A^(-1) E^(-1), so p A^(-1) integral gives
      k_t <= 1 for every t.

    So W = T^(-1) diag(p^(v - k_t) u_t^(-1)) E has only integral factors:
    row c_t of W is p^(v - k_t) u_t^(-1) E[r_t] minus T[r_t][c_s] W[c_s]
    over the later pivots s, one smatvec per row, latest pivot first, and
    the only divisions are the exact ones by p^(k_t).  Every computed
    quantity is that of the lift E^(-1) U of A (E and U taken as their
    integer coordinates) reduced mod p^N, and adj of any lift is adj(A)
    mod p^N, so each entry of W below valuation N has the valuation of
    the matching entry of adj(A)."""
    r = len(cols)
    if len(steps) < r:
        return ops.cap, None
    v = sum(k for _, k, _, _ in steps)
    neg, mul, divexact_p = ops.neg, ops.mul, ops.divexact_p
    # p^(v - k) u^(-1) per distinct pivot (k, u^(-1)): a direct sum of k
    # copies of one summand has only that summand's few
    leads = {}
    out = [None] * r
    for c, k, unit_inv, row in reversed(steps):
        lead = leads.get((k, unit_inv))
        if lead is None:
            lead = leads[k, unit_inv] = ops.scale(ops.p ** (v - k), unit_inv)
        srcs, coeffs = {-1: []}, {-1: lead}
        for j, b in row.items():
            if j < r:
                srcs[j] = out[j].items()
                coeffs[j] = neg(mul(divexact_p(b, k), unit_inv))
            else:
                srcs[-1].append((j - r, b))
        out[c] = ops.smatvec(srcs, coeffs)
    return v, [sorted(w.items()) for w in out]


def det_valuation(ops, srows):
    """val det M, capped at N, for the square matrix M with the given
    sparse rows: the sum of _eliminate's pivot valuations, exact below N
    (see adjugate_action), and N when fewer pivots than rows are found,
    i.e. when det M = 0 mod p^N."""
    steps, v = _eliminate(ops, [dict(row) for row in srows], len(srows))
    return v if len(steps) == len(srows) else ops.cap


# ---------------------------------------------------------------------------
# Newton polygons of p-adic polynomials


def lower_hull(points):
    """Vertices of the lower convex hull of points with ascending x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def lane_slope_pairs(lops, srows, twist, scale):
    """(slope, multiplicity) pairs of the p-adic Newton polygon of
    det(xI - M) for every lane of the lane matrix M with the given sparse
    rows (lops a _LaneOps, or the base ops of one matrix, its one lane),
    each hull vertex (i, v) moved to (sx * i, sy * v) for scale =
    (sx, sy) and each slope divided by twist: one (pairs, term) per lane,
    whose pairs are certified exactly when its certificate term sy * s
    (below) lies below N.  One pair per hull segment of each diagonal
    block, so a slope may come more than once.

    Scale: with (2, 1) these are the pairs of h(t^2), and with (2, 2)
    those of h * sigma^s(h), for the monic h = det(xI - M).  The hull of
    h(t^2) is that of h stretched in degree (its odd coefficients are 0),
    and that of the product is the Minkowski sum of two hulls equal to
    h's, sigma keeping valuations.

    Blocks: listed sources first, the blocks of the SCC order put M into
    block upper-triangular form, so h is the product of the blocks'
    polynomials h_b, a polynomial identity over any commutative ring, Z/p^N
    and W_N(F_{p^d}) included.  Valuations add under products, so the
    polygon of h is the union of the polygons of the h_b (Neukirch,
    Algebraic Number Theory, ch. II, section 6), each read from one
    Berkowitz run on its block for all lanes.

    Certificate: a lane's polygon is determined at precision N unless a
    moved vertex of the hull of h sits at or above N.  A coefficient that
    reads as 0 has valuation N, the cap, so it is no vertex, and revealing
    it only raises a point on or above a hull whose vertices lie below it.
    A monic hull runs from (0, val h_0) down to (deg, 0) and, being convex,
    lies at or below val h_0, so the check fails exactly when
    sy * val h_0 >= N.  h_0 is the product of the blocks' constant terms,
    so val h_0 is the sum s of their valuations, capped at N, and with
    sy >= 1 the check is sy * s >= N.  When it passes, each block's
    constant term lies below N, so each block's hull is certified, and
    their union is h's polygon.

    Lanes: the blocks are those of the union of the lanes' supports.  A
    lane may see coarser blocks than its own matrix has, and that changes
    no result: a coarse block of the lane's matrix is block
    upper-triangular in the lane's own finer blocks, so its polynomial is
    the product of theirs, its polygon the union of theirs, and its val c_0
    min(N, the sum of theirs), which decides the certificate as they do (a
    capped term already fails it); NewtonPolygon merges repeated pairs.
    Valuations are read coefficient by coefficient across all lanes
    (lops.vals), the hulls once per distinct tuple of a lane's valuation
    rows, and lanes whose blocks have the same hulls share one
    (pairs, term); coefficient_slope_pairs is this tail, on the blocks'
    charpolys.  Sweeps run this only at d >= 3: at d <= 2 they read their
    polygons off residues (unit_slope_pairs).

    Transpose: for twist d <= 2, Berkowitz runs on each block's
    transpose, whose charpoly is the block's, so its Krylov vectors are
    rows of the block; the blocks and their order stay those of M.  Then
    M is a product of at most two factors (see
    fcrystal.newton_slopes_batch), and on the deformation template's lane
    matrices this takes about a fifth fewer lane products; at d >= 3, four
    or more factors, it would take up to two thirds more.  On the digests'
    module matrices it changes none."""
    mat = sparse_transpose(srows, len(srows)) if twist <= 2 else srows
    return coefficient_slope_pairs(
        lops, [reversed(_berkowitz(lops, _restrict(mat, block)))
               for block in _blocks(srows)], twist, scale)


def coefficient_slope_pairs(lops, polys, twist, scale):
    """lane_slope_pairs of the monic polynomial h given by its monic
    factors polys, each a list of lane coefficients, low degree first:
    their valuations, hulls and certificate term, with twist and scale as
    there.  lane_slope_pairs passes the charpolys of the blocks.  The
    certificate argument of lane_slope_pairs holds for any factorization
    of h: the polygon of h is the union of its factors', and sy times the
    sum of their val c_0 lies below N exactly when sy val h_0 does.  So
    pairs read from another factorization may split a slope differently
    from per-block pairs, but each lane's polygon, and whether it is
    certified, are the same."""
    vals = lops.vals
    # per factor, each lane's valuations of its coefficients, low degree
    # first
    rows = [list(zip(*map(vals, poly))) for poly in polys]
    out, by_rows, shared = [], {}, {}
    for lane_rows in zip(*rows) if rows else [()] * lops.width:
        got = by_rows.get(lane_rows)
        if got is None:
            hulls = tuple([tuple(lower_hull(list(enumerate(row))))
                           for row in lane_rows])
            got = shared.get(hulls)
            if got is None:
                got = shared[hulls] = _hull_pairs(hulls, twist, scale)
            by_rows[lane_rows] = got
        out.append(got)
    return out


def unit_slope_pairs(units, twist, scale):
    """lane_slope_pairs of the monic h of degree n = len(units) + 1 whose
    coefficient c_k of y^(n-k) is p^(k-1) u_k for 0 < k < n, u_k
    integral, and whose constant term c_n has valuation n, read from the
    u_k mod p alone: units[k - 1] holds u_k mod p, a lane value that is 0
    exactly in the lanes where p divides u_k (a sweep at d <= 2 reads them
    off the deformation template, displayzoo._template_charpoly).

    In degree and valuation, c_k is the point (n - k, val c_k), and
    val c_k = k - 1 when u_k is a unit and val c_k >= k when p divides it.
    The chord from (0, n) to (n, 0) has height k at degree n - k, so the
    points of the u_k that p divides lie on or above it, and so on or
    above the lower hull of (0, n), (n, 0) and the points (n - k, k - 1)
    of the units u_k, which runs at or below the chord between the same
    ends: that hull is h's.  The points of the units lie on one line
    below the chord, so those between the first and the last are on the
    hull's segment joining them and no vertex: the hull is lower_hull of
    the ends and those two (one point when they are one), and distinct
    first and last units give distinct hulls.  Its vertices are those
    coefficient_slope_pairs reads off every valuation, and the
    certificate term is sy n.  One hull is run per distinct first and
    last unit in the call, and the lanes that share them share one
    (pairs, term)."""
    n = len(units) + 1
    out, shared = [], {}
    # lane by lane, u_(n-1), ..., u_1: the points of degree 1, ..., n - 1
    for lane in zip(*reversed(units)):
        mask = tuple(map(bool, lane))
        # the degrees of the first and the last unit's points, if any
        span = ((mask.index(True) + 1, n - 1 - mask[::-1].index(True))
                if True in mask else ())
        got = shared.get(span)
        if got is None:
            hull = lower_hull([(0, n)] + [(i, n - 1 - i) for i in span]
                              + [(n, 0)])
            got = shared[span] = _hull_pairs((hull,), twist, scale)
        out.append(got)
    return out


def _hull_pairs(hulls, twist, scale):
    """(pairs, term) of the factors of h with the given hulls, in degree
    and valuation, each from (0, val c_0) of its factor: one slope pair
    per hull segment and the certificate term sy times the sum of the
    val c_0 (see lane_slope_pairs)."""
    sx, sy = scale
    return ([(Fraction(sy * (v1 - v2), sx * (i2 - i1) * twist),
              sx * (i2 - i1))
             for hull in hulls for (i1, v1), (i2, v2) in zip(hull, hull[1:])],
            sy * sum(hull[0][1] for hull in hulls))


# ---------------------------------------------------------------------------
# linear algebra over the residue field


def rank(ops, rows):
    """Rank of the matrix with the given sparse rows, dicts or lists of
    (column, nonzero raw entry) pairs, over the field of ops: F_{p^d} for a
    context at precision 1, where every nonzero entry is a unit pivot and
    _eliminate stops when nothing nonzero is left."""
    rows = [dict(row) for row in rows]
    ncols = 1 + max((j for row in rows for j in row), default=-1)
    return len(_eliminate(ops, rows, ncols)[0])
