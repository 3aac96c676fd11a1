"""Matrix kernels over truncated Witt rings.

Internal module: division-free characteristic polynomials (Berkowitz),
Frobenius-twisted matrix products, adjugate columns via Cayley-Hamilton,
lower convex hulls for Newton polygons, and mod-p linear algebra.  Raw
coordinate data (plain ints when d == 1, coordinate tuples otherwise) is
used throughout; the coefficient ring Z/p^N has zero divisors, so nothing
here divides by a non-unit.

Display matrices are sparse (a rank-16 deformation display has 26 nonzero
entries out of 256), so charpoly and adjugate_action first collect each
row's nonzero entries as (column, value) pairs (sparse_rows) and do every
matrix-vector product on those pairs only.  Both kernels take dense rows
and return exactly what the dense computation would: the ring is exact,
so skipping zero terms and reordering sums changes no coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul as _int_mul


class PrecisionError(ArithmeticError):
    """A result is not determined at the working precision."""


class _IntOps:
    """Raw arithmetic for d == 1: scalars are plain ints mod p^N."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.q = ctx.q
        self.cap = ctx.N
        self.zero = 0
        self.one = 1

    def unwrap(self, scalar):
        return scalar.coords[0]

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

    def dot(self, u, v):
        return sum(map(_int_mul, u, v)) % self.q

    def sdot(self, pairs, v):
        """Dot product of a sparse row, given as (column, value) pairs,
        with the dense vector v."""
        return sum([a * v[j] for j, a in pairs]) % self.q

    def truncate(self, a):
        """Raw data of any finer precision, reduced mod p^N."""
        return a % self.q

    def is_zero(self, a):
        return a == 0

    def val(self, a):
        if a == 0:
            return self.cap
        p, v = self.p, 0
        while a % p == 0:
            a //= p
            v += 1
        return min(v, self.cap)

    def frob(self, a, power=1):
        return a

    def divexact_p(self, a, k):
        return a // self.p ** k

    def mod_p(self, a):
        return (a % self.p,)


class _ExtOps:
    """Raw arithmetic for d >= 2: scalars are length-d coordinate tuples."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.q = ctx.q
        self.d = ctx.d
        self.cap = ctx.N
        self.zero = (0,) * ctx.d
        self.one = (1,) + (0,) * (ctx.d - 1)

    def unwrap(self, scalar):
        return scalar.coords

    def wrap(self, raw):
        return self.ctx.scalar(raw)

    def neg(self, a):
        q = self.q
        return tuple((-c) % q for c in a)

    def add(self, a, b):
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def _reduce(self, conv):
        d, q = self.d, self.q
        out = list(conv[:d])
        red = self.ctx._red
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                row = red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return tuple(v % q for v in out)

    def mul(self, a, b):
        d = self.d
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return self._reduce(conv)

    def dot(self, u, v):
        return self.sdot(enumerate(u), v)

    def sdot(self, pairs, v):
        """Dot product of a sparse row, given as (column, value) pairs,
        with the dense vector v."""
        d = self.d
        conv = [0] * (2 * d - 1)
        for j, a in pairs:
            b = v[j]
            for i in range(d):
                ai = a[i]
                if ai:
                    for k in range(d):
                        bk = b[k]
                        if bk:
                            conv[i + k] += ai * bk
        return self._reduce(conv)

    def truncate(self, a):
        """Raw data of any finer precision, reduced mod p^N."""
        q = self.q
        return tuple(c % q for c in a)

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def val(self, a):
        return self.ctx._wval(a)

    def frob(self, a, power=1):
        return self.ctx.frobenius_coords(a, power)

    def divexact_p(self, a, k):
        pk = self.p ** k
        return tuple(c // pk for c in a)

    def mod_p(self, a):
        p = self.p
        return tuple(c % p for c in a)


def ops_for(ctx):
    return _IntOps(ctx) if ctx.d == 1 else _ExtOps(ctx)


# ---------------------------------------------------------------------------
# matrices (lists of rows of raw scalars)


def unwrap_matrix(ops, rows_of_scalars):
    return [[ops.unwrap(s) for s in row] for row in rows_of_scalars]


def wrap_matrix(ops, rows):
    return tuple(tuple(ops.wrap(e) for e in row) for row in rows)


def mat_vec(ops, rows, v):
    return [ops.dot(row, v) for row in rows]


def mat_mul(ops, a, b):
    cols = list(zip(*b))
    return [[ops.dot(row, col) for col in cols] for row in a]


def frob_matrix(ops, rows, power):
    return [[ops.frob(e, power) for e in row] for row in rows]


def twisted_product(ops, rows, d):
    """A * sigma(A) * ... * sigma^(d-1)(A), the d-fold linearization of a
    sigma-semilinear operator with matrix A."""
    out = rows
    for k in range(1, d):
        out = mat_mul(ops, out, frob_matrix(ops, rows, k))
    return out


def sparse_rows(ops, rows):
    """Each row's nonzero entries as (column, value) pairs, columns
    ascending."""
    is_zero = ops.is_zero
    return [[(j, e) for j, e in enumerate(row) if not is_zero(e)]
            for row in rows]


def charpoly(ops, rows):
    """Coefficients of det(xI - M), low degree first, by the Berkowitz
    algorithm (division-free, sound over Z/p^N).

    Step k borders the leading (k-1) x (k-1) block with row and column
    k-1.  Its matrix-vector products use only the nonzero entries left of
    column k-1; when row k-1 has none there, they are skipped outright.
    """
    r = len(rows)
    if r == 0:
        return [ops.one]
    srows = sparse_rows(ops, rows)
    neg, sdot, dot, zero = ops.neg, ops.sdot, ops.dot, ops.zero
    poly = [ops.one, neg(rows[0][0])]  # high degree first while iterating
    for k in range(2, r + 1):
        km1 = k - 1
        items = [ops.one, neg(rows[km1][km1])]
        rk = [(j, a) for j, a in srows[km1] if j < km1]
        if rk:
            sub = [[(j, a) for j, a in srow if j < km1]
                   for srow in srows[:km1]]
            w = [row[km1] for row in rows[:km1]]
            items.append(neg(sdot(rk, w)))
            for _ in range(k - 2):
                w = [sdot(srow, w) for srow in sub]
                items.append(neg(sdot(rk, w)))
        else:
            items += [zero] * km1
        new = []
        for i in range(k + 1):
            lo, hi = max(0, i - k), min(i, km1)
            new.append(dot([items[i - j] for j in range(lo, hi + 1)],
                           poly[lo:hi + 1]))
        poly = new
    poly.reverse()
    return poly


def adjugate_action(ops, rows, cp):
    """Matrix B = sum_{k>=1} c_k M^(k-1) with M * B = -c_0 * I, from the
    characteristic polynomial cp of M (Cayley-Hamilton).

    Column j is B e_j, evaluated by Horner's rule from the monic top
    coefficient down: r - 1 sparse matrix-vector products per column.
    """
    r = len(rows)
    srows = sparse_rows(ops, rows)
    sdot, add = ops.sdot, ops.add
    cols = []
    for j in range(r):
        w = [ops.zero] * r
        w[j] = cp[r]
        for k in range(r - 1, 0, -1):
            w = [sdot(srow, w) for srow in srows]
            w[j] = add(w[j], cp[k])
        cols.append(w)
    return [[cols[j][i] for j in range(r)] for i in range(r)]


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


def charpoly_slope_pairs(ops, cp, twist):
    """(slope, multiplicity) pairs of the p-adic Newton polygon of cp, with
    every root valuation divided by twist.

    Raises PrecisionError when a hull vertex sits at the valuation cap: the
    polygon is then not determined at this precision.
    """
    cap = ops.cap
    vals = [ops.val(c) for c in cp]
    hull = lower_hull(list(enumerate(vals)))
    for (i, v) in hull:
        if v >= cap:
            raise PrecisionError(
                f"insufficient precision: hull vertex at degree {i} has "
                f"valuation >= {cap}")
    pairs = []
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        pairs.append((Fraction(v1 - v2, (i2 - i1) * twist), i2 - i1))
    return pairs


# ---------------------------------------------------------------------------
# linear algebra over F_p and F_{p^d}


def gf_rank(rows, p):
    """Rank of an integer matrix over F_p (destructive on a copy)."""
    m = [[e % p for e in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for i in range(row_idx, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row_idx], m[pivot] = m[pivot], m[row_idx]
        inv = pow(m[row_idx][col], p - 2, p)
        m[row_idx] = [(e * inv) % p for e in m[row_idx]]
        for i in range(len(m)):
            if i != row_idx and m[i][col]:
                c = m[i][col]
                m[i] = [(a - c * b) % p for a, b in zip(m[i], m[row_idx])]
        row_idx += 1
        rank += 1
        if row_idx == len(m):
            break
    return rank


def gf_mult_matrix(coords, ctx):
    """d x d matrix over F_p of multiplication by a residue field element."""
    p, d = ctx.p, ctx.d
    cols = []
    for s in range(d):
        conv = [0] * (s + d)
        for i, c in enumerate(coords):
            conv[s + i] = c % p
        out = conv[:d] + [0] * (d - len(conv[:d]))
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                row = ctx._red_p[k - d]
                for i in range(d):
                    out[i] = (out[i] + c * row[i]) % p
        cols.append(out)
    return [[cols[s][t] for s in range(d)] for t in range(d)]


def gf_blowup(coord_rows, ctx, sigma_power=None):
    """F_p matrix of the map x -> M.sigma^k(x) on F_{p^d}-coordinate vectors.

    coord_rows holds residue field elements as coordinate tuples; the result
    is the (rows*d) x (cols*d) matrix acting on stacked F_p coordinates.
    """
    p, d = ctx.p, ctx.d
    nr = len(coord_rows)
    nc = len(coord_rows[0]) if nr else 0
    sig = None
    if sigma_power is not None and sigma_power % d != 0:
        tab = ctx._frob[sigma_power % d]
        sig = [[tab[s][t] % p for s in range(d)] for t in range(d)]
    big = [[0] * (nc * d) for _ in range(nr * d)]
    for i in range(nr):
        for j in range(nc):
            coords = coord_rows[i][j]
            if all(c % p == 0 for c in coords):
                continue
            block = gf_mult_matrix(coords, ctx)
            if sig is not None:
                block = [[sum(block[t][u] * sig[u][s] for u in range(d)) % p
                          for s in range(d)] for t in range(d)]
            for t in range(d):
                row = big[i * d + t]
                bt = block[t]
                for s in range(d):
                    row[j * d + s] = bt[s]
    return big
