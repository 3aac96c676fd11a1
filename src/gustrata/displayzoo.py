"""Constructors for the standard displays and their deformations.

The zoo contains the rank-2 module N, the rank-2m modules M(m), direct
sums, the per-stratum decompositions M(2(floor(n/2)+1-j)) + N^r(j), the
supersingular module for each n, and the n-1 parameter family deforming the
supersingular module, specialized at residue field points through
Teichmuller lifts.

Every builder writes the canonical sparse form of fcrystal (F by columns,
the pairing by rows, (position, raw) pairs with positions ascending and no
zero) directly, by index arithmetic: M(m) puts u_k at position k - 1 and
v_k at m + k - 1, each integer coefficient (1, -1, p) is one raw value
shared by its entries, and the p entries vanish, and are left out, at
N = 1.  direct_sum shifts its summands' lines by their offsets, and the
deformation family fills a per-n template (see deformation_display),
which a sweep reads as lanes, one per point, with no display: at d <= 2
the unit parts of the lane matrix's charpoly mod p in closed form
(_template_charpoly), at d >= 3 the factors of the lane matrix
(_template_lanes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ._linalg import _LaneOps, ops_for
from .fcrystal import (MAX_SPEC_HALF_RANK, BasisLabel, DieudonneDisplay, U, V,
                       _basis_halves, _graded_length)
from .wittring import FieldElement

__all__ = [
    "module_N", "module_M", "direct_sum", "expected_module",
    "supersingular_module", "DeformationPoint", "deformation_display",
    "ModuleSpec", "parse_module_spec", "MAX_SPEC_HALF_RANK",
]


def _coefficients(ctx):
    """(raw 1, raw -1, p_at), p_at(k) the sparse line of p at position k:
    one raw value per integer coefficient, and an empty line at N = 1,
    where p is 0."""
    ops = ops_for(ctx)
    one = ops.one
    p = ops.scale(ctx.p, one)
    return (one, ops.neg(one),
            (lambda k: ((k, p),)) if p != ops.zero else (lambda k: ()))


def _m_labels(m):
    """u_1..u_m at positions 0..m-1, then v_1..v_m at m..2m-1."""
    return tuple(map(U, range(1, m + 1))) + tuple(map(V, range(1, m + 1)))


def _m_pairing(m, one, minus):
    """Sparse rows of the pairing <u_i, v_i> = (-1)^i = -<v_i, u_i>."""
    sign = (one, minus)  # sign[k % 2] = (-1)^k
    return (tuple(((m + k, sign[(k + 1) % 2]),) for k in range(m))
            + tuple(((k, sign[k % 2]),) for k in range(m)))


def module_N(ctx):
    """The rank-2 display on u0, v0 with F v0 = -u0 and u0 = V v0, so
    F u0 = p v0 (F V = p), and <u0, v0> = 1 = -<v0, u0>; both slopes 1/2.
    Written straight into the canonical sparse form."""
    one, minus, p_at = _coefficients(ctx)
    return DieudonneDisplay._from_sparse(
        ctx, (U(0), V(0)), (p_at(1), ((0, minus),)),
        (((1, one),), ((0, minus),)))


def _check_m(m):
    if m < 2:
        raise ValueError(f"module_M needs m >= 2, got {m}")


def _check_n(n):
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")


def module_M(ctx, m):
    """The rank-2m display on u_1..u_m, v_1..v_m.

    F u_1 = (-1)^m v_m, F v_k = u_{k-1} for k >= 2, and the V-relations
    v_1 = V u_m, u_k = V v_{k-1} give F v_1 = p u_m, F u_k = p v_{k-1}.
    The pairing is <u_i, v_j> = (-1)^i delta_ij.  Written straight into
    the canonical sparse form, u_k at position k - 1 and v_k at m + k - 1.
    """
    _check_m(m)
    one, minus, p_at = _coefficients(ctx)
    fcols = (((2 * m - 1, minus if m % 2 else one),),     # F u_1
             *(p_at(m + k) for k in range(m - 1)),        # F u_k, k >= 2
             p_at(m - 1),                                 # F v_1
             *(((k, one),) for k in range(m - 1)))        # F v_k, k >= 2
    return DieudonneDisplay._from_sparse(
        ctx, _m_labels(m), fcols, _m_pairing(m, one, minus))


def direct_sum(*displays):
    """Block sum of displays over the same context, built in one pass.

    Colliding labels in a later summand are bumped to the smallest free
    index of their family; the mapping is recorded in the summands field,
    which lists the summands of a summand that is itself a sum.  The
    search for a free index starts where the family's last one ended: no
    index is ever freed, so the smallest free one only grows.

    The sum is written straight into the canonical sparse form: each
    summand's lines are shifted by its offset, a label that is not bumped
    is the summand's own object, and each distinct summand's label names
    are formatted once.

    The parts field holds each distinct leaf summand (a summand that is a
    sum contributes its parts) once, with its count: a display summed k
    times, as ModuleSpec.build sums every repeat of a term, has its
    invariants computed once, not k times (see fcrystal._parts).
    """
    if not displays:
        raise ValueError("direct_sum needs at least one display")
    ctx = displays[0].ctx
    params = ctx.params()
    if any(disp.ctx is not ctx and disp.ctx.params() != params
           for disp in displays[1:]):
        raise ValueError("context mismatch between summands")
    used = {"u": set(), "v": set()}
    free = {"u": 0, "v": 0}  # no index below is free
    labels, prev, fcols, jrows = [], [], [], []
    parts = {}  # id of a leaf summand -> [leaf, count]
    seen = {}  # id of a summand -> (label, family, index, name) of each
    off = 0
    for disp in displays:
        for part, count in disp.parts or ((disp, 1),):
            parts.setdefault(id(part), [part, 0])[1] += count
        own = seen.get(id(disp))
        if own is None:
            own = seen[id(disp)] = [(lab, lab.family, lab.index, str(lab))
                                    for lab in disp.basis]
        mapping = []
        for lab, fam, idx, name in own:
            taken = used[fam]
            if idx in taken:
                idx = free[fam]
                while idx in taken:
                    idx += 1
                free[fam] = idx + 1
                lab = BasisLabel(fam, idx)
                mapping.append((name, f"{fam}{idx}"))
            else:
                mapping.append((name, name))
            taken.add(idx)
            labels.append(lab)
        if disp.summands is not None:
            prev.extend(disp.summands)
        else:
            prev.append(tuple(mapping))
        fcols.extend(_shifted(disp.sparse_frobenius, off))
        jrows.extend(_shifted(disp.sparse_pairing, off))
        off += disp.rank
    return DieudonneDisplay._from_sparse(
        ctx, labels, tuple(fcols), tuple(jrows), summands=tuple(prev),
        parts=tuple(map(tuple, parts.values())))


def _shifted(lines, off):
    """Sparse lines with every position moved up by off."""
    if not off:
        return lines
    return [((line[0][0] + off, line[0][1]),) if len(line) == 1
            else tuple([(k + off, a) for k, a in line]) for line in lines]


def expected_module(ctx, n, j):
    """The module on the stratum with the j-th smallest positive slope gap:
    M(2(floor(n/2)+1-j)) + N^r with r forced by total rank 2n."""
    _check_n(n)
    if not 1 <= j <= n // 2:
        raise ValueError(f"j must lie in [1, {n // 2}], got {j}")
    m = 2 * (n // 2 + 1 - j)
    r = n - m
    if r == 0:
        return module_M(ctx, m)
    return direct_sum(module_M(ctx, m), *(module_N(ctx) for _ in range(r)))


def supersingular_module(ctx, n):
    """M(n) for odd n, M(n-1) + N for even n; all slopes 1/2."""
    _check_n(n)
    if n % 2:
        return module_M(ctx, n)
    return direct_sum(module_M(ctx, n - 1), module_N(ctx))


@dataclass(frozen=True)
class DeformationPoint:
    """A residue-field specialization of the deformation parameters.

    Odd n uses coordinates s_2..s_n; even n uses s_0, s_2..s_{n-1}.  Both
    parameter vectors have length n-1.
    """
    n: int
    values: tuple

    def __post_init__(self):
        _check_n(self.n)
        if len(self.values) != self.n - 1:
            raise ValueError(
                f"expected {self.n - 1} parameters, got {len(self.values)}")
        if not all(isinstance(v, FieldElement) for v in self.values):
            raise TypeError("parameters must be residue field elements")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def indices(self):
        return _parameter_indices(self.n)

    def as_dict(self):
        return dict(zip(self.indices, self.values))

    def parameter(self, index):
        return self.as_dict()[index]

    @classmethod
    def from_ints(cls, ctx, n, ints):
        return cls(n, tuple(ctx.field_from_int(k) for k in ints))

    def to_ints(self):
        return tuple(v.to_int() for v in self.values)

    def __str__(self):
        parts = ", ".join(f"s{i}={v.to_int()}"
                          for i, v in zip(self.indices, self.values))
        return f"def({self.n}; {parts})"


def deformation_display(ctx, point):
    """The universal-family display specialized at a residue field point.

    Parameters enter through their Teichmuller lifts [s_j].  For odd n,
    on u_1..u_n, v_1..v_n:

        F u_1 = -v_n,   F u_2 = p v_1 + sum_{j=2}^{n-1} (-1)^j p [s_j] v_j
                                + p [s_n] v_n,
        F v_1 = p u_n - p [s_n] u_1,   F v_2 = u_1,
        F u_k = p v_{k-1},   F v_k = u_{k-1} + [s_{k-1}] u_1   (k >= 3),

    with <u_i, v_i> = (-1)^i = -<v_i, u_i>.  For even n these relations on
    m = n-1 are followed by u_0, v_0 with F u_0 = p v_0,
    F v_0 = -u_0 - [s_0] u_1, the extra term p [s_0] v_0 in F u_2 and
    <u_0, v_0> = 1 = -<v_0, u_0>.  At the zero point this reproduces
    supersingular_module(point.n) entrywise.

    The coefficient of the top-index term in the F u_2 sum is +[s] (not
    the alternating sign), and for even n the sum carries the extra term
    p [s_0] v_0: with the convention F v_1 = p(u - s u_1) and
    F v_0 = -u_0 - s_0 u_1 these are the unique coefficients for which the
    pairing satisfies <F x, y> = sigma(<x, V y>) identically in the
    parameters; polarization_check verifies this on every specialization.

    Each entry is a constant, scaled once per context and n, or an integer
    factor times a lift, the only products formed per point (see
    _deformation_template).
    """
    for v in point.values:
        if v.ctx.residue_params() != ctx.residue_params():
            raise ValueError("point lives over a different residue field")
    labels, slots, jrows = _deformation_template(ctx, point.n)
    ops = ops_for(ctx)
    lifts = [ops.unwrap(ctx.teichmuller(v)) for v in point.values]
    scale, zero = ops.scale, ops.zero
    fcols = tuple(
        tuple((i, a) for i, f, k in col
              if (a := f if k is None else scale(f, lifts[k])) != zero)
        for col in slots)
    return DieudonneDisplay._from_sparse(ctx, labels, fcols, jrows, ops=ops)


def _template_entries(n):
    """(labels, columns) of the deformation template for n, with no
    context: columns[j] lists column j of F as (row, sign, w, parameter
    position) quadruples, rows ascending, for the integer f = sign p^w,
    w 0 or 1: the entry is f times the lift of point.values[position], or,
    for position None, f itself.  w is the entry's valuation at a point
    whose parameters are nonzero, and its edge's weight in the slope
    graph (strata._template_graph).  Even n is the odd family on m = n - 1
    plus the u_0, v_0 block."""
    m = n if n % 2 else n - 1
    pos = {j: t for t, j in enumerate(_parameter_indices(n))}
    labels = _m_labels(m)
    slots = {(U(1), V(m)): (-1, 0, None), (U(2), V(1)): (1, 1, None),
             (U(2), V(m)): (1, 1, pos[m]), (V(1), U(m)): (1, 1, None),
             (V(1), U(1)): (-1, 1, pos[m]), (V(2), U(1)): (1, 0, None)}
    for j in range(2, m):
        slots[(U(2), V(j))] = ((-1) ** j, 1, pos[j])
    for k in range(3, m + 1):
        slots[(U(k), V(k - 1))] = (1, 1, None)
        slots[(V(k), U(k - 1))] = (1, 0, None)
        slots[(V(k), U(1))] = (1, 0, pos[k - 1])
    if m < n:
        labels += (U(0), V(0))
        slots.update({(U(2), V(0)): (1, 1, pos[0]),
                      (U(0), V(0)): (1, 1, None),
                      (V(0), U(0)): (-1, 0, None),
                      (V(0), U(1)): (-1, 0, pos[0])})
    idx = {lab: k for k, lab in enumerate(labels)}
    cols = [[] for _ in labels]
    for (a, b), entry in slots.items():
        cols[idx[a]].append((idx[b], *entry))
    return labels, [sorted(col) for col in cols]


@functools.lru_cache(maxsize=32)
def _deformation_template(ctx, n):
    """(labels, slots, sparse raw pairing) of deformation_display for n.

    slots[j] lists column j of F as (row, f, parameter position) triples,
    rows ascending: the entry is the integer f times the lift of
    point.values[position], or, for position None, the raw entry f itself,
    scaled here once (one that is 0 mod p^N, p at N = 1, is left out); the
    entries are _template_entries(n).
    """
    m = n if n % 2 else n - 1
    one, minus, _ = _coefficients(ctx)
    jrows = _m_pairing(m, one, minus)
    if m < n:
        jrows += (((2 * m + 1, one),), ((2 * m, minus),))
    labels, cols = _template_entries(n)
    ops = ops_for(ctx)
    slots = []
    for col in cols:
        out = []
        for i, sign, w, k in col:
            f = sign * ctx.p ** w
            if k is not None or (f := ops.scale(f, ops.one)) != ops.zero:
                out.append((i, f, k))
        slots.append(tuple(out))
    return labels, tuple(slots), jrows


def _template_lanes(ctx, n, rows):
    """(lops, factors) of the deformation displays at the points with the
    parameter codes rows (DeformationPoint.from_ints(ctx, n, ints) for
    ints in rows), read as lanes without building them, as a sweep at
    d >= 3 reads them (at d <= 2 it reads _template_charpoly): lops is the
    _LaneOps of one lane per point that fcrystal._lane_pairs makes for
    those displays, and factors are the twisted factors it reads off
    them, _linalg.twisted_factors of the packed lane blocks X and Y
    (fcrystal._lane_columns on each half of the basis) with
    fcrystal._graded_length(d) factors: factor k is sigma^k of X for
    even k and of Y for odd k.

    Each entry is filled straight into each factor in one pass across the
    lanes.  A constant of the template is an integer, which sigma fixes,
    and it is the same in every lane.  An entry f [s] has an integer f, so
    sigma^k(f [s]) = f sigma^k([s]) = f [s^(p^k)]: factor k reads it off
    the lift of each distinct code, twisted once, and each f [s] is formed
    once per distinct (f, code) and twist, not once per lane.  An entry
    is left out only where it vanishes in every lane, as _lane_columns
    leaves it out: a constant never does, f [s_k] does where s_k is 0 in
    every lane or f is 0 mod p^N (p at N = 1).  The template's rows
    ascend, and so do their positions within a family, so each column
    keeps the order _lane_columns sorts into."""
    labels, slots, _ = _deformation_template(ctx, n)
    ops = ops_for(ctx)
    lops = _LaneOps(ops, len(rows), len(labels))
    pack, scale, frob, d = lops.pack, ops.scale, ops.frob, ctx.d
    lifts, codes, tables = _lifts(ctx, ops, rows), list(zip(*rows)), {}

    def entry(f, k, twist):
        if k is None:
            return (pack(f),) * lops.width
        table = tables.get((f, twist))
        if table is None:
            table = tables[f, twist] = {
                c: pack(scale(f, frob(v, twist))) for c, v in lifts.items()}
        return tuple([table[c] for c in codes[k]])

    halves, factors = _basis_halves(labels), []
    for t in range(_graded_length(d)):
        idx, pos = halves[t % 2]
        factors.append([[(pos[i], e) for i, f, k in slots[j]
                         if any(e := entry(f, k, t % d))] for j in idx])
    return lops, factors


def _lifts(ctx, ops, rows):
    """The raw Teichmuller lift of each parameter code in rows, by code.
    At N = 1 a lift is its residue, and no lift runs."""
    lift = ctx.teichmuller if ctx.N > 1 else (lambda a: a)
    return {k: ops.unwrap(lift(ctx.field_from_int(k)))
            for k in set().union(*rows)}


def _template_charpoly(ctx, n, rows):
    """(lops, units) at d <= 2: a _LaneOps of one lane per point with the
    parameter codes rows and, for 0 < k < n, the lane unit parts u_k of
    the coefficients c_k = p^(k-1) u_k of y^(n-k) in g = det(yI - M), for
    the lane matrix M = X sigma(Y) of _template_lanes, its two factors (at
    d = 1, sigma = 1 and M = X Y), read off the points' lifts by the
    closed form below: no factor, product or Berkowitz run is formed.
    c_0 = 1 and c_n = p^n at every point.  A sweep runs this at N = 1,
    where the u_k mod p decide each lane's polygon
    (_linalg.unit_slope_pairs), with no lift run.

    Write m = n for odd n and m = n - 1 for even n, h = (m - 1)/2, s_i
    for the lift of the parameter s_i, t_i = sigma(s_i) (t = s at d = 1),
    and s_1 = t_1 = 1.  Then g_m(y) = sum_k a_k y^(m-k) with a_0 = 1,
    a_m = p^m and, for 1 <= k <= h, eps = 1 for k < h and -1 for k = h,

        a_k     = p^(k-1)   (eps p t_(2k+1) + sum_i t_i s_(i+m-2k)),
        a_(m-k) = p^(m-k-1) (eps p s_(2k+1) + sum_i s_i t_(i+m-2k)),

    the sums over odd i < 2k.  For odd n, g = g_m; for even n,
    g = (y + p) g_m - p^h s_0 t_0 y^(h+1).  So a_m and g(0) are p^m and
    p^n: every point has val det A = n.  Write a_k = p^(k-1) b_k for
    0 < k < m, and b_0 = b_m = p.  Then u_k = b_k for odd n, and for even
    n, c_k = a_k + p a_(k-1) less p^h s_0 t_0 at k = h + 1, so
    u_k = b_k + b_(k-1) less s_0 t_0 at k = h + 1.

    Proof.  From deformation_display, the images of the u's under M are
    M u_1 = -u_(m-1) - s_(m-1) u_1, M u_3 = p u_1,
    M u_k = p u_(k-2) + p s_(k-2) u_1 (k >= 4), and M u_2 = c u_1 +
    sum_(i >= 2) w_i u_i with w_i = (-1)^(i+1) p t_(i+1) for i <= m - 2,
    w_(m-1) = p t_m and w_m = p^2.  Take the Schur complement of
    yI - M on S = {u_1, u_2}: on the rest R = {u_3, ..., u_m}, M is the
    shift u_k -> p u_(k-2), nilpotent, so det(yI - M_RR) = y^(m-2) and
    g = y^(m-2) det T, T_ab = y [a = b] minus the sum over the paths from
    u_b to u_a with their inner vertices in R, each its product of
    entries (the edge u_j -> u_i carrying M[i][j]) over y^(inner
    vertices).  In R the odd u's form the chain u_m -> ... -> u_3 -> u_1
    and the even ones u_(m-1) -> ... -> u_4 -> u_2, each step p, and
    u_k (k >= 4) also steps to u_1 with p s_(k-2); so every path is one
    monomial, and with z = p / y

        T_11 = y + sum_(r < h) s_(m-1-2r) z^r,    T_21 = z^(h-1),
        T_22 = y - sum_(r < h) w_(2r+2) z^r
             = y + p sum_(r < h-1) t_(2r+3) z^r - p t_m z^(h-1),

    while T_12 is a polynomial in z alone.  A term y^a z^b of det T
    gives p^b to a_k, k = 2 - a + b.  T_12 T_21 has a = 0 and b >= h - 1,
    so for k <= h, a_k comes from T_11 T_22 alone: y^2 gives a_0 = 1,
    y s_(m+1-2k) z^(k-1) the term i = 1, y (-w_(2k)) z^(k-1) the term
    eps p^k t_(2k+1), and p s_(m-1-2r) t_(2r+3) z^(r+r') with
    r + r' = k - 2 the term i = 2r' + 3 of the sum, its sign + since
    r' <= h - 2.  That is the low half.

    The high half is the pairing.  <F x, y> = sigma(<x, V y>) with
    FV = p reads Y(s)^T D X(s) = -p D, D = diag <u_i, v_i>, identically
    in the parameters (polarization_check verifies it), so
    sigma(Y) = Y(t) = -p D X(t)^(-T) D over the fraction field and
    M = -p X(s) D X(t)^(-T) D.  For P = D X(s)^(-1), Q = D X(t)^T,
    M with s and t swapped is -p (PQ)^T and p^2 M^(-1) = -p QP, so
    both have one charpoly: (-y)^m g(p^2 / y) = det(M) g'(y), g' the g
    of M with s and t swapped.  X maps v_2 -> u_1, v_1 -> p u_m - p s_m u_1
    and v_k -> u_(k-1) + s_(k-1) u_1, a signed permutation times
    diag(p, 1, ...) up to unitriangular column operations, so det X(s)
    and det X(t) are one +-p, det M = (-p)^m and a_m = p^m.  So
    y^m g(p^2 / y) = p^m g'(y), and its coefficients of y^(m-k) give
    a_(m-k) = p^(m-2k) a'_k, the high half.
    (sigma^2 = 1 at d <= 2, so g' is g with sigma applied to its
    coefficients.)

    Even n adds u_0: M u_0 = -p u_0 - p s_0 u_1, and M u_2 gains
    -p t_0 u_0 - p s_0 t_0 u_1.  Bordering by u_0,
    det [[B, b], [c^T, e]] = e det B - c^T adj(B) b, with det B linear in
    its (u_1, u_2) entry, gives g = (y + p) g_m + p s_0 t_0 y C, C the
    (u_1, u_2) cofactor of yI - M_m.  C is g_m times
    entry (2, 1) of (yI - M_m)^(-1), which is (T^(-1))_21 = -T_21 / det T;
    so C = -y^(m-2) z^(h-1) = -p^(h-1) y^h.

    Swapping s and t takes b_k to b_(m-k), so u_k to u_(n-k) (and the
    s_0 t_0 term at k = h + 1 = n - k to itself); at d <= 2 the swap is
    sigma, so b_(h+1) = sigma(b_h) and u_(n-k) = sigma(u_k).

    Each lane is its own point's g: the formula acts lane by lane on the
    packed s_i and t_i.  With T_j = t_(2j+1) (T_0 = 1) and
    S_r = s_(m+1-2r), b_k = eps p T_k + sum_(j + r = k, r >= 1) T_j S_r,
    the low half of a product of two polynomials.  All b_k, k <= h, and
    s_0 t_0 are one lops.smatvec, one reduction per output entry and at
    most h + 1 <= n products each, so the lanes are sized for n.  The
    rest is lane additions and sigma: at even n, u_k = b_k + b_(k-1) and
    u_(h+1) = b_h + sigma(b_h) - s_0 t_0, and then u_(n-k) = sigma(u_k)
    for every n.  -p and -s_0 t_0 are lane negations, so no packed slot
    goes negative, and at N = 1, where p is 0, the terms in p drop out."""
    ops = ops_for(ctx)
    lops = _LaneOps(ops, len(rows), n)
    pack, frob, zero, width = lops.pack, ops.frob, lops.zero, lops.width
    lifts, codes = _lifts(ctx, ops, rows), list(zip(*rows))
    indices = _parameter_indices(n)

    def lanes(twist):
        table = {c: pack(frob(v, twist)) for c, v in lifts.items()}
        return {1: lops.one, **{i: tuple([table[c] for c in col])
                                for i, col in zip(indices, codes)}}

    p, m = ctx.p, n - 1 + n % 2
    h = m // 2
    s = lanes(0)
    t = lanes(1) if ctx.d == 2 else s
    plus = (pack(ops.scale(p, ops.one)),) * width
    # the sources are the t_i, T_j at i = 2j + 1; S_r in each column
    # where it is not 0 in every lane, and s_0 at t_0 for even n
    S = [(r, e) for r in range(1, h + 1) if (e := s[m + 1 - 2 * r]) != zero]
    cols = {2 * j + 1: [(j + r, e) for r, e in S if j + r <= h]
            for j in range(h)}
    if plus != zero:
        for k in range(1, h + 1):
            cols.setdefault(2 * k + 1, []).append(
                (k, plus if k < h else lops.neg(plus)))
    if m < n:
        cols[0] = [(0, s[0])]
    b = lops.smatvec(cols, {i: t[i] for i in cols if t[i] != zero})
    low = [b.get(k, zero) for k in range(1, h + 1)]
    if m < n:
        add, top = lops.add, low[-1]
        low = [add(x, y) for x, y in zip(low, [plus] + low)] + [
            add(add(top, lops.frob(top)), lops.neg(b.get(0, zero)))]
    return lops, low + [lops.frob(c) for c in reversed(low[:(n - 1) // 2])]


def _parameter_indices(n):
    """The deformation parameters: s_2..s_n for odd n, s_0, s_2..s_{n-1}
    for even n."""
    return tuple(range(2, n + 1)) if n % 2 else (0,) + tuple(range(2, n))


# ---------------------------------------------------------------------------
# the module-spec mini grammar: N, M(m), ss(n), def(n; s2=..), sums, powers


@dataclass(frozen=True)
class ModuleSpec:
    """Parsed module expression; build(ctx) constructs the display."""
    terms: tuple

    @property
    def half_rank(self):
        return sum(map(_term_half_rank, self.terms))

    def build(self, ctx):
        """The display of the spec over ctx.  Each distinct term is built
        once and the same display is summed at every repeat: displays are
        immutable, and direct_sum relabels each occurrence."""
        built = {}
        for term in self.terms:
            if term not in built:
                built[term] = _build_term(ctx, term)
        if len(self.terms) == 1:
            return built[self.terms[0]]
        return direct_sum(*(built[term] for term in self.terms))

    def __str__(self):
        parts = []
        for term in self.terms:
            kind = term[0]
            if kind == "N":
                parts.append("N")
            elif kind == "M":
                parts.append(f"M({term[1]})")
            elif kind == "ss":
                parts.append(f"ss({term[1]})")
            else:
                assigns = ", ".join(f"s{i}={v}" for i, v in term[2])
                parts.append(f"def({term[1]}; {assigns})")
        return " + ".join(parts)


def _build_term(ctx, term):
    kind = term[0]
    if kind == "N":
        return module_N(ctx)
    if kind == "M":
        return module_M(ctx, term[1])
    if kind == "ss":
        return supersingular_module(ctx, term[1])
    if kind == "def":
        point = DeformationPoint.from_ints(
            ctx, term[1], _def_ints(term[1], dict(term[2])))
        return deformation_display(ctx, point)
    raise ValueError(f"unknown term {term!r}")


def _term_half_rank(term):
    return 1 if term[0] == "N" else term[1]


def _check_term(term):
    """ValueError unless the term can be built: M(m) needs m >= 2, ss(n)
    n >= 3, and def(n; ...) n >= 3 and parameter indices of n."""
    kind = term[0]
    if kind == "M":
        _check_m(term[1])
    elif kind == "ss":
        _check_n(term[1])
    elif kind == "def":
        _def_ints(term[1], dict(term[2]))


def _def_ints(n, assignments):
    """The parameter vector of def(n; assignments), unassigned parameters
    0.  ValueError for indices that are not parameters of n, checked
    first, and then for n < 3."""
    indices = _parameter_indices(n)
    bad = set(assignments) - set(indices)
    if bad:
        # 0 for even n, then a run 2..top of no or at least two indices:
        # name the run by its ends, so the message stays short for any n
        run = [i for i in indices if i]
        valid = ["0"] * (0 in indices) + (
            [f"{run[0]}..{run[-1]}"] if run else [])
        raise ValueError(
            f"parameter indices {sorted(bad)} invalid for n={n}; "
            f"valid indices are {', '.join(valid) or 'none'}")
    _check_n(n)
    return tuple(assignments.get(i, 0) for i in indices)


def parse_module_spec(text):
    """Parse the module mini-grammar.

    Examples: "N", "M(4)", "ss(6)", "M(2)+N^2", "def(5; s2=1, s4=2)".
    Every check runs before any context is made.  Raises ValueError when
    the half ranks of the terms, powers counted before they are expanded,
    add up to more than MAX_SPEC_HALF_RANK (a term counts at least 1, as
    the smallest valid term N does); then for a term that cannot be built
    (_check_term), with the message building it would give.  A parameter
    index given twice is refused as the term is read.
    """
    terms = []
    total = 0
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in module spec")
        power = 1
        if "^" in chunk:
            chunk, _, ptext = chunk.partition("^")
            chunk = chunk.strip()
            power = _parse_int(ptext.strip(), "power")
            if power < 1:
                raise ValueError(f"power must be >= 1, got {power}")
        term = _parse_term(chunk)
        total += max(_term_half_rank(term), 1) * power
        if total > MAX_SPEC_HALF_RANK:
            raise ValueError(f"module spec exceeds half rank "
                             f"{MAX_SPEC_HALF_RANK}")
        terms.extend([term] * power)
    if not terms:
        raise ValueError("empty module spec")
    for term in dict.fromkeys(terms):
        _check_term(term)
    return ModuleSpec(tuple(terms))


def _parse_term(chunk):
    if chunk == "N":
        return ("N",)
    for head in ("M", "ss", "def"):
        if chunk.startswith(head + "(") and chunk.endswith(")"):
            inner = chunk[len(head) + 1:-1]
            if head == "M":
                m = _parse_int(inner.strip(), "M argument")
                return ("M", m)
            if head == "ss":
                n = _parse_int(inner.strip(), "ss argument")
                return ("ss", n)
            npart, _, rest = inner.partition(";")
            n = _parse_int(npart.strip(), "def argument")
            assignments = {}
            rest = rest.strip()
            if rest:
                for piece in rest.split(","):
                    key, _, val = piece.partition("=")
                    key = key.strip()
                    if not key.startswith("s"):
                        raise ValueError(f"bad parameter assignment {piece!r}")
                    idx = _parse_int(key[1:], "parameter index")
                    if idx in assignments:
                        raise ValueError(f"parameter s{idx} given twice")
                    assignments[idx] = _parse_int(val.strip(),
                                                  "parameter value")
            return ("def", n, tuple(sorted(assignments.items())))
    raise ValueError(f"cannot parse module term {chunk!r}")


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what}: {text!r}") from None
