"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: characteristic
polynomials by the Leibniz permutation expansion (or, for ranks where r!
terms are too many, by cofactor expansion memoized on column sets),
irreducibility
of polynomials over F_p by trial division, simple-cycle enumeration via
networkx, the M(m) polygon from its closed form, residue field arithmetic
by schoolbook polynomial products, the a-number and signature by dense
elimination on the F_p blow-up, the extra-edge effects of a sweep by a
label-keyed edge filter on the dense F matrix, Teichmuller lifts by
iterating the p^d-power map, twisted products by dense scalar
matrix products, Newton polygons with their precision certificate by
gift wrapping over valuations read from the coordinates, the
Verschiebung p A^(-1) with the validation of F from the Cayley-Hamilton
adjugate, computed again at a higher precision for the exact V, with unit
inverses by powering, and the charpoly of the deformation template's lane
matrix as a polynomial over Z in p and the parameters, by cofactor
expansion of dict polynomials.
"""

import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from gustrata import NewtonPolygon


def leibniz_charpoly_int(rows, q):
    """det(xI - M) over Z/q by permutation expansion; coefficients low
    degree first, as ints.  Exponential, for small matrices only."""
    r = len(rows)
    coeffs = [0] * (r + 1)
    for perm in itertools.permutations(range(r)):
        sign = _perm_sign(perm)
        # product of linear polynomials (xI - M)[i][perm[i]]
        poly = [1]
        for i in range(r):
            entry = (-rows[i][perm[i]]) % q
            diag = 1 if perm[i] == i else 0
            # multiply poly by (entry + diag*x)
            new = [0] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k] = (new[k] + c * entry) % q
                if diag:
                    new[k + 1] = (new[k + 1] + c) % q
            poly = new if diag else new[:-1]
        for k, c in enumerate(poly):
            coeffs[k] = (coeffs[k] + sign * c) % q
    return coeffs


def leibniz_charpoly_scalar(rows, ctx):
    """Same expansion with PadicScalar entries (any d)."""
    r = len(rows)
    zero, one = ctx.zero(), ctx.one()
    coeffs = [zero] * (r + 1)
    for perm in itertools.permutations(range(r)):
        sign = _perm_sign(perm)
        poly = [one]
        for i in range(r):
            entry = -rows[i][perm[i]]
            diag = perm[i] == i
            new = [zero] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k] = new[k] + c * entry
                if diag:
                    new[k + 1] = new[k + 1] + c
            poly = new if diag else new[:-1]
        padded = poly + [zero] * (r + 1 - len(poly))
        coeffs = [c + sign * p for c, p in zip(coeffs, padded)]
    return coeffs


def expansion_charpoly(rows, zero, one):
    """det(xI - M), coefficients low degree first, by cofactor expansion
    along the rows in order, memoized on the set of columns the earlier
    rows took: 2^r minors instead of r! products.  Entries are ints (reduce
    the result afterwards) or PadicScalars; only +, - and * are used."""
    r = len(rows)
    memo = {(1 << r) - 1: [one]}

    def minor(used):
        """det of (xI - M) on rows k.. and the columns not in used."""
        if used in memo:
            return memo[used]
        k = bin(used).count("1")
        total = [zero] * (r - k + 1)
        position = 0  # of column j among the columns not yet used
        for j in range(r):
            if used >> j & 1:
                continue
            entry = -rows[k][j]
            if j == k or entry != zero:
                sub = minor(used | 1 << j)
                term = [entry * c for c in sub] + [zero]
                if j == k:
                    term = [t + c for t, c in zip(term, [zero] + sub)]
                total = [a - b if position % 2 else a + b
                         for a, b in zip(total, term)]
            position += 1
        memo[used] = total
        return total

    return minor(0)


def _perm_sign(perm):
    sign = 1
    seen = set()
    for start in perm:
        if start in seen:
            continue
        length = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def is_irreducible_brute(f, p):
    """Irreducibility of the monic f (low degree first) over F_p by trial
    division by every monic polynomial of degree 1..deg(f)//2."""
    def poly_mod(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[-1]
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    return all(poly_mod(f, list(tail) + [1])
               for deg in range(1, (len(f) - 1) // 2 + 1)
               for tail in itertools.product(range(p), repeat=deg))


def first_irreducible_brute(p, d):
    """Lexicographically first monic irreducible of degree d over F_p, the
    constant coefficient varying fastest."""
    for k in range(p ** d):
        f = [(k // p ** i) % p for i in range(d)] + [1]
        if is_irreducible_brute(f, p):
            return tuple(f[:-1])
    raise AssertionError("no irreducible found")


def expected_M_polygon(m):
    """Closed form: all 1/2 for odd m; for m = 2h the pair
    (h-1)/2h and (h+1)/2h, each with multiplicity 2h."""
    if m % 2:
        return NewtonPolygon([(Fraction(1, 2), 2 * m)])
    h = m // 2
    return NewtonPolygon([(Fraction(h - 1, 2 * h), 2 * h),
                          (Fraction(h + 1, 2 * h), 2 * h)])


def _parallel_weights(graph):
    """networkx DiGraph of the graph's vertex pairs, and for each pair the
    weights of its edges, one per parallel edge, in edge order."""
    import networkx as nx

    G = nx.DiGraph()
    G.add_nodes_from(graph.vertices)
    weights = {}
    for a, b, w in graph.edges:
        G.add_edge(a, b)
        weights.setdefault((a, b), []).append(w)
    return G, weights


def simple_cycles_through_nx(graph, v, tags=None):
    """All simple cycles through v via networkx, as a Counter of
    (normalized vertex tuple, length, weight) triples for order-insensitive
    comparison.  A vertex cycle is one cycle per choice of parallel edge
    at each step, each with its own weight.  With ``tags``, integers
    parallel to graph.edges, each key also holds the OR of the tags of the
    chosen edges, as a fourth entry."""
    import networkx as nx

    G, weights = _parallel_weights(graph)
    marks = {}
    for (a, b, _), t in zip(graph.edges, tags or itertools.repeat(0)):
        marks.setdefault((a, b), []).append(t)
    found = Counter()
    for cyc in nx.simple_cycles(G):
        if v not in cyc:
            continue
        k = cyc.index(v)
        rot = tuple(cyc[k:] + cyc[:k])
        steps = [(rot[i], rot[(i + 1) % len(rot)]) for i in range(len(rot))]
        for choice in itertools.product(
                *(range(len(weights[e])) for e in steps)):
            key = (rot, len(rot),
                   sum(weights[e][c] for e, c in zip(steps, choice)))
            if tags is not None:
                mask = 0
                for e, c in zip(steps, choice):
                    mask |= marks[e][c]
                key += (mask,)
            found[key] += 1
    return found


def label_edges(display):
    """(source, target, valuation) label triples of the nonzero entries of
    the dense F matrix, column by column."""
    F = display.frobenius
    labels = display.basis
    r = len(labels)
    return [(labels[j], labels[i], F[i][j].valuation())
            for j in range(r) for i in range(r) if not F[i][j].is_zero()]


def min_slope_through_nx(vertices, edges, v, base_pairs=None):
    """Least weight/length over the simple cycles through v (networkx) of
    the graph on ``vertices`` with the label triples ``edges``; with
    ``base_pairs`` (a set of (str(source), str(target))), only the edges
    of weight 0 or with their pair in it are kept.  None without cycles."""
    if base_pairs is not None:
        edges = [(a, b, w) for a, b, w in edges
                 if w == 0 or (str(a), str(b)) in base_pairs]
    graph = SimpleNamespace(vertices=vertices, edges=edges)
    return min((Fraction(w, length) for _, length, w
                in simple_cycles_through_nx(graph, v)), default=None)


def extra_edge_effects_oracle(n, p, d):
    """The ``extra_edge_effects`` list of the exhaustive verify sweep at
    (n, p, d), recomputed with two separate cycle enumerations per point:
    all cycles through u1, and those of the graph whose positive-weight
    edges are restricted to the zero point's edges, matched by label
    string.  Points whose polygon fails at 2N are skipped, as in the
    sweep."""
    from gustrata import (DeformationPoint, PrecisionError,
                          default_precision, deformation_display,
                          make_context, newton_slopes)
    from gustrata.fcrystal import U

    ctx = make_context(p, d, default_precision(n, d))
    base = deformation_display(
        ctx, DeformationPoint.from_ints(ctx, n, (0,) * (n - 1)))
    base_pairs = {(str(a), str(b)) for a, b, _ in label_edges(base)}
    u1 = U(1)
    out = []
    for ints in itertools.product(range(p ** d), repeat=n - 1):
        point = DeformationPoint.from_ints(ctx, n, ints)
        display = deformation_display(ctx, point)
        try:
            newton_slopes(display)
        except PrecisionError:
            ctx2 = ctx.at_precision(2 * ctx.N)
            display = deformation_display(ctx2, point)
            try:
                newton_slopes(display)
            except PrecisionError:
                continue
        edges = label_edges(display)
        full = min_slope_through_nx(display.basis, edges, u1)
        if full is None:
            continue
        reduced = min_slope_through_nx(display.basis, edges, u1, base_pairs)
        if reduced is None:
            raise RuntimeError(f"no cycles through {u1}")
        if reduced != full:
            out.append({
                "point": {f"s{i}": v for i, v in zip(point.indices, ints)},
                "full": f"{full.numerator}/{full.denominator}",
                "without_extra_black_edges":
                    f"{reduced.numerator}/{reduced.denominator}",
            })
    return out


def int_valuation(a, p, cap):
    """p-adic valuation of the integer a, capped at cap (so 0 gives cap)."""
    v = 0
    while v < cap and a % p == 0:
        a //= p
        v += 1
    return v


def scalar_valuation(c, cap):
    """Valuation of a Witt scalar, capped at cap: the least valuation of
    its coordinates, since the basis 1, x, ..., x^(d-1) of the unramified
    ring stays independent mod p."""
    return min(int_valuation(a, c.ctx.p, cap) for a in c.coords)


def certified_slope_pairs_oracle(vals, cap, twist):
    """(slope, multiplicity) pairs of the Newton polygon of the points
    (i, vals[i]), valuations capped at cap, each slope divided by twist.
    The vertices are found by gift wrapping: from a vertex, the next is the
    farthest point of least slope.  A vertex at the cap raises
    PrecisionError with the text the sweep reports."""
    from gustrata import PrecisionError

    vertices = [0]
    while vertices[-1] < len(vals) - 1:
        i = vertices[-1]
        best = None
        for j in range(i + 1, len(vals)):
            slope = Fraction(vals[j] - vals[i], j - i)
            if best is None or slope <= best[0]:
                best = (slope, j)
        vertices.append(best[1])
    for i in vertices:
        if vals[i] >= cap:
            raise PrecisionError(
                f"insufficient precision: hull vertex at degree {i} has "
                f"valuation >= {cap}")
    return [(Fraction(vals[i] - vals[j], (j - i) * twist), j - i)
            for i, j in zip(vertices, vertices[1:])]


def blowup_slope_pairs(display):
    """Slopes of F as a Z_p-linear operator on the underlying rank r*d
    Z_p-module: every module slope should appear with multiplicity
    multiplied by d.  Independent of the twisted-product route."""
    ctx = display.ctx
    d, q, r = ctx.d, ctx.q, display.rank

    def mult_mat(coords):
        cols = []
        for s in range(d):
            shifted = [0] * s + list(coords)
            out = shifted[:d] + [0] * (d - min(d, len(shifted)))
            for k in range(d, len(shifted)):
                c = shifted[k]
                if c:
                    row = ctx._red[k - d]
                    for i in range(d):
                        out[i] = (out[i] + c * row[i]) % q
            cols.append([v % q for v in out])
        return [[cols[s][t] for s in range(d)] for t in range(d)]

    # sigma^d = 1: at d = 1 sigma is the identity, table 0
    sig = [[ctx._frob[1 % d][s][t] for s in range(d)] for t in range(d)]
    big = [[0] * (r * d) for _ in range(r * d)]
    for i in range(r):
        for j in range(r):
            coords = display.frobenius[i][j].coords
            if all(c == 0 for c in coords):
                continue
            mm = mult_mat(coords)
            block = [[sum(mm[t][u] * sig[u][s] for u in range(d)) % q
                      for s in range(d)] for t in range(d)]
            for t in range(d):
                for s in range(d):
                    big[i * d + t][j * d + s] = block[t][s]
    cp = expansion_charpoly(big, 0, 1)
    return certified_slope_pairs_oracle(
        [int_valuation(c % q, ctx.p, ctx.N) for c in cp], ctx.N, 1)


def field_mul_brute(a, b, p, modulus):
    """Product of two F_{p^d} coordinate tuples: the full polynomial
    product reduced by long division modulo the monic polynomial with
    non-leading coefficients modulus, then mod p."""
    d = len(modulus)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    f = list(modulus) + [1]
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        for i, fi in enumerate(f):
            prod[top - d + i] -= c * fi
    return tuple(c % p for c in prod[:d])


def field_inv_brute(a, p, modulus):
    """Inverse of a nonzero F_{p^d} coordinate tuple, by search."""
    d = len(modulus)
    one = (1,) + (0,) * (d - 1)
    for x in itertools.product(range(p), repeat=d):
        if field_mul_brute(a, x, p, modulus) == one:
            return x
    raise ZeroDivisionError("zero has no inverse")


def field_rank_brute(rows, p, modulus):
    """Rank over F_{p^d} of a dense matrix of coordinate tuples, by
    Gauss-Jordan elimination with normalised pivots."""
    d = len(modulus)
    zero = (0,) * d
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != zero),
                     None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field_inv_brute(m[rank][col], p, modulus)
        m[rank] = [field_mul_brute(inv, e, p, modulus) for e in m[rank]]
        for i in range(len(m)):
            c = m[i][col]
            if i != rank and c != zero:
                m[i] = [tuple((x - y) % p for x, y in zip(
                    e, field_mul_brute(c, f, p, modulus)))
                    for e, f in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fp_rank(rows, p):
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    m = [[e % p for e in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [e * inv % p for e in m[rank]]
        for i in range(len(m)):
            c = m[i][col]
            if i != rank and c:
                m[i] = [(x - c * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fp_blowup(ctx, rows, sigma_power):
    """F_p matrix of x -> M sigma^k(x) on stacked F_p coordinates, for the
    matrix M of scalars reduced mod p; built from the context's reduction
    and Frobenius tables only."""
    p, d = ctx.p, ctx.d
    red = [[c % p for c in row] for row in ctx._red]
    tab = ctx._frob[sigma_power % d]
    sig = [[tab[s][t] % p for s in range(d)] for t in range(d)]

    def mult_mat(coords):
        cols = []
        for s in range(d):
            shifted = [0] * s + [c % p for c in coords]
            out = shifted[:d]
            for k in range(d, len(shifted)):
                for i in range(d):
                    out[i] = (out[i] + shifted[k] * red[k - d][i]) % p
            cols.append(out)
        return [[cols[s][t] for s in range(d)] for t in range(d)]

    nr, nc = len(rows), len(rows[0]) if rows else 0
    big = [[0] * (nc * d) for _ in range(nr * d)]
    for i in range(nr):
        for j in range(nc):
            mm = mult_mat(rows[i][j].coords)
            for t in range(d):
                for s in range(d):
                    big[i * d + t][j * d + s] = sum(
                        mm[t][u] * sig[u][s] for u in range(d)) % p
    return big


def blowup_a_number(display):
    """a-number as the F_p dimension of ker(F mod p) and ker(V mod p) on
    the rank r*d F_p-space of coordinates, divided by d: F acts as
    x -> A sigma(x) and V as x -> B sigma^(-1)(x)."""
    ctx = display.ctx
    d = ctx.d
    _, vmat = display.verschiebung_matrix()
    stacked = (_fp_blowup(ctx, display.frobenius, 1)
               + _fp_blowup(ctx, vmat, d - 1))
    kernel = display.rank * d - _fp_rank(stacked, ctx.p)
    assert kernel % d == 0, "kernel is not stable under the residue field"
    return kernel // d


def blowup_signature(display):
    """(u, v) dimensions of D / V D: each part's rank minus the F_p rank
    of the blow-up of the V mod p block mapping the other part into it,
    divided by d."""
    ctx = display.ctx
    _, vmat = display.verschiebung_matrix()
    uu, vv = display.u_indices, display.v_indices

    def block_rank(rows_idx, cols_idx):
        sub = [[vmat[i][j] for j in cols_idx] for i in rows_idx]
        r = _fp_rank(_fp_blowup(ctx, sub, 0), ctx.p)
        assert r % ctx.d == 0, "rank is not a multiple of d"
        return r // ctx.d

    return (len(uu) - block_rank(uu, vv), len(vv) - block_rank(vv, uu))


def min_cycle_mean_brute(graph):
    """Minimum mean over all simple cycles, by exhaustive enumeration; of
    parallel edges the lightest gives a vertex cycle its least mean."""
    import networkx as nx

    G, weights = _parallel_weights(graph)
    best = None
    for cyc in nx.simple_cycles(G):
        total = sum(min(weights[(cyc[i], cyc[(i + 1) % len(cyc)])])
                    for i in range(len(cyc)))
        mean = Fraction(total, len(cyc))
        if best is None or mean < best:
            best = mean
    return best


def teichmuller_oracle(p, d, N, modulus, coords):
    """Teichmuller lift mod p^N of the residue field element with the given
    coordinates in F_p[x]/(f), f the monic polynomial with non-leading
    coefficients modulus: iterate y -> y^(p^d) in (Z/p^N)[x]/(f) from the
    coordinate lift until it is stable.  Each step gains d digits."""
    q = p ** N
    f = list(modulus) + [1]

    def mulmod(a, b):
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for top in range(len(prod) - 1, d - 1, -1):
            c = prod[top]
            for i, fi in enumerate(f):
                prod[top - d + i] -= c * fi
        return tuple(c % q for c in prod[:d])

    def power(a, e):
        result = (1,) + (0,) * (d - 1)
        while e:
            if e & 1:
                result = mulmod(result, a)
            a = mulmod(a, a)
            e >>= 1
        return result

    y = tuple(c % q for c in coords)
    for _ in range(N + 2):
        nxt = power(y, p ** d)
        if nxt == y:
            return y
        y = nxt
    raise AssertionError("p^d-power iteration did not stabilise")


def twisted_product_dense(rows, d):
    """A * sigma(A) * ... * sigma^(d-1)(A) for a dense matrix of scalars,
    by plain row-by-column products of scalars."""
    r = len(rows)
    zero = rows[0][0].ctx.zero()
    out = rows
    for k in range(1, d):
        twisted = [[e.frobenius(k) for e in row] for row in rows]
        out = [[sum((out[i][t] * twisted[t][j] for t in range(r)), zero)
                for j in range(r)] for i in range(r)]
    return out


def cayley_hamilton_adjugate(rows, zero, one):
    """(c0, B) for a dense square matrix M of scalars: c0 the constant term
    of det(xI - M) (expansion_charpoly) and B = sum_{k>=1} c_k M^(k-1) by
    Horner's rule with dense products, so that M B = B M = -c0 I
    (Cayley-Hamilton): B is (-1)^(r+1) adj(M)."""
    cp = expansion_charpoly(rows, zero, one)
    r = len(rows)
    b = [[zero] * r for _ in range(r)]
    for c in reversed(cp[1:]):
        b = [[sum((rows[i][t] * b[t][j] for t in range(r)), zero)
              + (c if i == j else zero) for j in range(r)]
             for i in range(r)]
    return cp[0], b


def _unit_inverse(u):
    """u^(-1) for a unit of W_N(F_{p^d}) as u^(#units - 1)."""
    ctx = u.ctx
    e = (ctx.p ** ctx.d - 1) * ctx.p ** (ctx.d * (ctx.N - 1)) - 1
    out = ctx.one()
    while e:
        if e & 1:
            out = out * u
        u = u * u
        e >>= 1
    return out


def verschiebung_oracle(display):
    """(validation details, V) from the Cayley-Hamilton adjugate of the
    dense matrix A of F, read as the parent release did: details holds the
    frobenius_invertible and verschiebung_integral details of
    validate_display; V is the error text of V's derivation when it fails,
    or else (precision, rows of coordinate tuples) of sigma^(-1)(p A^(-1))
    for the coordinate lift of A, computed exactly at precision 2N + 2 and
    reduced to the precision V is reported at: N + 1 for v = 0, N - 1 for
    v = 1 and N - v + 1 for v >= 2."""
    from gustrata import make_context

    ctx = display.ctx
    p, d, N = ctx.p, ctx.d, ctx.N
    rows = [list(row) for row in display.frobenius]
    c0, b = cayley_hamilton_adjugate(rows, ctx.zero(), ctx.one())
    v = scalar_valuation(c0, N)
    if v >= N:
        text = "V not computable at this precision"
        return ([text], ["skipped: " + text]), text
    bad = [(i, j, k) for i, row in enumerate(b) for j, e in enumerate(row)
           if (k := scalar_valuation(e, N)) < v - 1]
    details = ([f"val det = {v}"],
               [f"entry ({i},{j}) valuation {k} < {v - 1}"
                for i, j, k in bad[:8]])
    if bad:
        return details, ("p*A^(-1) is not integral (first offending entry "
                         f"{bad[0][:2]})")
    hi = make_context(p, d, 2 * N + 2)
    lifted = [[hi.scalar(e.coords) for e in row] for row in rows]
    c0, b = cayley_hamilton_adjugate(lifted, hi.zero(), hi.one())
    # p A^(-1) = -(p B / p^v) (c0 / p^v)^(-1): exact mod p^(N + 2)
    unit = hi.scalar([c // p ** v for c in c0.coords])
    scale = -_unit_inverse(unit)
    prec = N + 1 if v == 0 else N - max(v, 2) + 1
    out = []
    for row in b:
        out.append([])
        for e in row:
            x = hi.scalar([c * p // p ** v for c in e.coords]) * scale
            out[-1].append(tuple(c % p ** prec
                                 for c in x.frobenius(d - 1).coords))
    return details, (prec, out)


class SymPoly:
    """A polynomial over Z in named variables: a dict from monomials,
    sorted tuples of (name, exponent), to nonzero int coefficients.  Only
    +, -, * and == are provided, what expansion_charpoly uses."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=()):
        self.terms = {mono: c for mono, c in dict(terms).items() if c}

    @classmethod
    def var(cls, name):
        return cls({((name, 1),): 1})

    @classmethod
    def const(cls, c):
        return cls({(): c})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return SymPoly(out)

    def __neg__(self):
        return SymPoly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                powers = dict(m1)
                for name, e in m2:
                    powers[name] = powers.get(name, 0) + e
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return SymPoly(out)

    def __pow__(self, k):
        out = SymPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == other.terms

    def __repr__(self):
        return f"SymPoly({self.terms!r})"


def _template_frobenius(n, prefix):
    """F of the deformation family at rank 2n with parameters named
    prefix + index: {column label: {row label: SymPoly}}, labels like
    "u1" and "v0".  Odd n is written on m = n; even n on m = n - 1 with
    the u_0, v_0 block.  The relations are those stated for the family:
    F u_1 = -v_m, F u_2 = p v_1 + sum_(2 <= j < m) (-1)^j p s_j v_j
    + p s_m v_m, F v_1 = p u_m - p s_m u_1, F v_2 = u_1, and for k >= 3
    F u_k = p v_(k-1), F v_k = u_(k-1) + s_(k-1) u_1; for even n also
    F u_0 = p v_0, F v_0 = -u_0 - s_0 u_1 and p s_0 v_0 in F u_2."""
    p, one = SymPoly.var("p"), SymPoly.const(1)
    s = {i: SymPoly.var(f"{prefix}{i}") for i in range(n + 1)}
    m = n if n % 2 else n - 1
    cols = {"u1": {f"v{m}": -one}, "u2": {"v1": p},
            "v1": {f"u{m}": p, "u1": -p * s[m]}, "v2": {"u1": one}}
    for j in range(2, m):
        cols["u2"][f"v{j}"] = SymPoly.const((-1) ** j) * p * s[j]
    cols["u2"][f"v{m}"] = p * s[m]
    for k in range(3, m + 1):
        cols[f"u{k}"] = {f"v{k - 1}": p}
        cols[f"v{k}"] = {f"u{k - 1}": one, "u1": s[k - 1]}
    if m < n:
        cols["u0"] = {"v0": p}
        cols["v0"] = {"u0": -one, "u1": -s[0]}
        cols["u2"]["v0"] = p * s[0]
    return cols


def template_charpoly_symbolic(n):
    """det(yI - X(s) Y(t)), low degree first, as SymPolys in p, s_i and
    t_i: X the block of F from the v's to the u's with parameters s, Y
    the block from the u's to the v's with parameters t (sigma(Y) when
    t = sigma(s)), multiplied entry by entry and expanded by
    expansion_charpoly."""
    fs, ft = _template_frobenius(n, "s"), _template_frobenius(n, "t")
    us = [lab for lab in fs if lab.startswith("u")]
    zero = SymPoly.const(0)
    rows = [[zero] * len(us) for _ in us]
    for b, ub in enumerate(us):
        for v, y in ft[ub].items():
            for ua, x in fs[v].items():
                a = us.index(ua)
                rows[a][b] = rows[a][b] + x * y
    return expansion_charpoly(rows, zero, SymPoly.const(1))


def template_charpoly_closed_form(n):
    """The closed form of det(yI - X(s) Y(t)), low degree first: with
    m = n (odd n) or n - 1 (even n), h = (m - 1) / 2, s_1 = t_1 = 1,
    a_0 = 1, a_m = p^m and, for 1 <= k <= h with eps = 1 below h and -1
    at h, a_k = p^(k-1) (eps p t_(2k+1) + sum_(odd i < 2k) t_i s_(i+m-2k))
    and a_(m-k) the same with s and t swapped times p^(m-2k); for even n
    the polynomial is (y + p) g_m - p^h s_0 t_0 y^(h+1)."""
    p, one = SymPoly.var("p"), SymPoly.const(1)
    s = {i: SymPoly.var(f"s{i}") for i in range(n + 1)}
    t = {i: SymPoly.var(f"t{i}") for i in range(n + 1)}
    s[1] = t[1] = one
    m = n if n % 2 else n - 1
    h = (m - 1) // 2
    a = [one] + [None] * (m - 1) + [p ** m]
    for k in range(1, h + 1):
        eps = SymPoly.const(1 if k < h else -1)
        for lo, x, z in ((k, t, s), (m - k, s, t)):
            total = eps * p * x[2 * k + 1]
            for i in range(1, 2 * k, 2):
                total = total + x[i] * z[i + m - 2 * k]
            a[lo] = p ** (lo - 1) * total
    coeffs = a[::-1]  # low degree first
    if m == n:
        return coeffs
    zero = SymPoly.const(0)
    out = [p * c for c in coeffs] + [zero]
    for k, c in enumerate(coeffs):
        out[k + 1] = out[k + 1] + c
    out[h + 1] = out[h + 1] - p ** h * s[0] * t[0]
    return out
