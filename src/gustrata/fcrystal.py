"""Displayed Dieudonne modules and their isogeny invariants.

A display fixes a basis split into u- and v-graded families, the matrix of
the sigma-semilinear operator F (column j = coordinates of F applied to
basis vector j), and the Gram matrix of the quasipolarization.  V is never
stored: it is derived from F via F V = V F = p, so that relation holds by
construction once integrality of p * A^(-1) is checked.

Both matrices are stored sparse and raw, in the form the kernels use: F by
its columns and the pairing by its rows, each a tuple of (index, raw)
pairs with indices ascending and zero entries left out, where raw is the
reduced coordinate data ops.unwrap gives (an int mod p^N for d = 1, a
coordinate tuple otherwise).  Reduced coordinates are unique, so this form
is canonical and two displays are equal exactly when their sparse data
are.  The dense rows of scalars, frobenius and pairing, are views wrapped
from it on first use; wrapping inverts unwrapping on reduced data, so a
display built from dense scalars gives back the same scalars.  The zoo
builders write this form directly (see displayzoo); deformation points
are filled into it from a per-n template: each entry of the family is
an integer times 1 or times a Teichmuller lift, and an integer times a
Witt vector scales each of its power-basis coordinates, so factor *
coordinate mod p^N is exactly the scalar product.

Newton slopes are computed from the p-adic Newton polygon of the
characteristic polynomial of the d-fold twisted product
Phi = A * sigma(A) * ... * sigma^(d-1)(A), divided by d, at the working
precision N, and certified there: _linalg.lane_slope_pairs states the
certificate, reads the polygon block by block and forms no polynomial
product.  newton_slopes_batch reads many displays at once, as lanes, and
newton_slopes one display, running the same kernels on its base ops; a
sweep fills the same lanes straight from the deformation template, with
no display (_graded_lane_pairs).

The prime is inert in L, so F swaps the u- and v-families.  When F is
graded that way (every nonzero entry joins the two families, and both
have n members), A = [[0, X], [Y, 0]] with X = A[U][V], Y = A[V][U], and
G = X sigma(Y) is the matrix of F^2 on the u-part, the sigma^2-linear
operator that carries the Newton polygon in the GU(1, n-1) setting
(Vollaard, Canad. J. Math. 62, 2010).  The twisted charpoly is then
computed from n x n matrices, by three identities that hold over any
commutative ring, hence coefficient by coefficient mod p^N:

* odd d: Phi = [[0, P], [Q, 0]] with PQ = G sigma^2(G) ... sigma^(2(d-1))(G)
  (sigma^d = 1 lets the 2d alternating factors pair up), and
  det(tI - Phi) = det(t^2 I - PQ) by the Schur complement of tI, so the
  twisted charpoly is h(t^2) for h = charpoly(PQ);
* even d: Phi = diag(Phi_uu, Phi_vv) with
  Phi_uu = G sigma^2(G) ... sigma^(d-2)(G); Phi_vv = Y W and
  sigma(Phi_uu) = W Y for W = sigma(X) sigma^2(Y) ... sigma^(d-1)(X), and
  det(tI - YW) = det(tI - WY), so charpoly(Phi_vv) = sigma(h) for
  h = charpoly(Phi_uu), and the twisted charpoly is h * sigma(h);
* at d = 1 sigma is the identity, G = XY, and the twisted charpoly is
  the charpoly of A itself, h(t^2).

Neither h(t^2) nor h * sigma(h) is formed: lane_slope_pairs reads their
polygons, and their certificates, from h with scale (2, 1) and (2, 2).
Displays that are not graded this way (only library input, such as
display_from_json, can give one) use the full rank-2n product.

Each display eliminates A once, cached (_linalg.pivot_steps on the rows
of [A | I] at precision N, with no characteristic polynomial of A), and
everything about F reads those pivots.  Their valuations are the
elementary divisors of A: they sum to v = val det A, and p A^(-1) is
integral exactly when there are rank-many, each at most 1.  Only V itself
back-substitutes from them (_linalg.adjugate_action, cached):
W = p^v A^(-1), and V = sigma^(-1)(W / p^(v-1)), cached as sparse rows.
The pairing check reads val det J from the same elimination on J's rows
(_linalg.det_valuation).

A direct sum records its distinct summands with their counts (the parts
field), and when its A is invertible at N with V integral (_parts) its
invariants read them, each summand computed once however often it
repeats: val det A, val det J, the lane polygon and its certificate term,
the a-number and the signature add up count times, and the polarization
check is empty when every summand's is.  Any other sum is read whole.

The a-number and the signature need no V.  On D / pD the relations
FV = VF = p make ker F = im V and ker V = im F (Demazure, Lectures on
p-divisible groups, LNM 302, ch. III), so both are ranks of F mod p:
a(D) = rank F - rank F^2, and for a graded F the u- and v-parts of D / VD
have dimensions rank Y and rank X mod p.  The pivots give all of it
(_unit_pivots): least-valuation pivoting takes every unit pivot first,
so they count rank A mod p, and the blocks X and Y never mix.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from ._linalg import ops_for, sparse_transpose
from .wittring import context_from_json, scalar_from_json

__all__ = [
    "BasisLabel", "NewtonPolygon", "DieudonneDisplay", "ValidationReport",
    "CheckResult", "PrecisionError", "validate_display", "newton_slopes",
    "polarization_check", "a_number", "p_rank", "signature",
    "display_from_json",
]


class PrecisionError(ArithmeticError):
    """A result is not determined at the working precision."""


# Largest half rank of library input: parse_module_spec refuses a larger
# module spec before expanding any power, and display_from_json more than
# twice as many basis labels before parsing any scalar.
MAX_SPEC_HALF_RANK = 4096


@dataclass(frozen=True, order=True)
class BasisLabel:
    """A basis vector name: family 'u' or 'v' plus a nonnegative index."""
    family: str
    index: int

    def __str__(self):
        return f"{self.family}{self.index}"

    @classmethod
    def parse(cls, text):
        if not isinstance(text, str):
            raise TypeError(f"basis label must be a string, got {text!r}")
        family, index = text[:1], text[1:]
        if family not in ("u", "v") or not index.isdigit():
            raise ValueError(f"bad basis label {text!r}")
        return cls(family, int(index))


def U(i):
    return BasisLabel("u", i)


def V(i):
    return BasisLabel("v", i)


@functools.lru_cache(maxsize=32)
def _basis_halves(basis):
    """((v-indices, u-position map), (u-indices, v-position map)) of a
    basis, each map sending an index to its position within its family;
    () when the families differ in size.  Column j of the block X (Y) is
    column j of F at the v-indices (u-indices), rows renumbered by the
    u-map (v-map).  Cached per basis: every point of a sweep shares the
    template's basis."""
    uu = tuple(i for i, b in enumerate(basis) if b.family == "u")
    vv = tuple(i for i, b in enumerate(basis) if b.family == "v")
    if len(uu) != len(vv):
        return ()
    return ((vv, dict(zip(uu, range(len(uu))))),
            (uu, dict(zip(vv, range(len(vv))))))


class NewtonPolygon:
    """Multiset of rational slopes in [0, 1], kept sorted ascending."""

    __slots__ = ("slopes",)

    def __init__(self, pairs):
        merged = {}
        for slope, mult in pairs:
            slope = Fraction(slope)
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            merged[slope] = merged.get(slope, 0) + int(mult)
        object.__setattr__(self, "slopes",
                           tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("NewtonPolygon is immutable")

    @property
    def rank(self):
        return sum(m for _, m in self.slopes)

    def min_slope(self):
        return self.slopes[0][0]

    def multiplicity(self, slope):
        slope = Fraction(slope)
        for s, m in self.slopes:
            if s == slope:
                return m
        return 0

    def slope_sum(self):
        return sum(s * m for s, m in self.slopes)

    def is_symmetric(self):
        return all(self.multiplicity(1 - s) == m for s, m in self.slopes)

    def has_integral_breakpoints(self):
        return all(m % s.denominator == 0 for s, m in self.slopes)

    def in_unit_interval(self):
        return all(0 <= s <= 1 for s, _ in self.slopes)

    def union(self, other):
        return NewtonPolygon(list(self.slopes) + list(other.slopes))

    def to_json(self):
        return {"slopes": [{"num": s.numerator, "den": s.denominator,
                            "mult": m} for s, m in self.slopes]}

    @classmethod
    def from_json(cls, obj):
        return cls([(Fraction(e["num"], e["den"]), e["mult"])
                    for e in obj["slopes"]])

    def __eq__(self, other):
        return isinstance(other, NewtonPolygon) and self.slopes == other.slopes

    def __hash__(self):
        return hash(self.slopes)

    def __repr__(self):
        inner = ", ".join(f"{s} x {m}" for s, m in self.slopes)
        return f"NewtonPolygon({inner})"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: tuple = ()

    def to_json(self):
        return {"name": self.name, "passed": self.passed,
                "details": list(self.details)}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


class DieudonneDisplay:
    """One quasipolarized module with an action splitting it into u/v parts.

    Stored sparse and raw (see the module docstring): sparse_frobenius
    holds the columns of F and sparse_pairing the rows of the pairing.
    Immutable after construction; invariant computations are cached.

    A direct sum (displayzoo.direct_sum) records in summands the label
    mapping of each leaf summand, and in parts its distinct leaf summands,
    each once, as (display, count) pairs in order of first occurrence;
    distinct means a distinct object.  parts is None for every other
    display.  Its invariants are read from the parts (see _parts).
    """

    def __init__(self, ctx, basis, columns, pairing, summands=None):
        basis = tuple(basis)
        rank = len(basis)
        if len(set(basis)) != rank:
            raise ValueError("basis labels must be distinct")
        if any(b.family not in ("u", "v") for b in basis):
            raise ValueError("basis families must be 'u' or 'v'")
        _check_shapes(rank, columns, pairing)
        ops = ops_for(ctx)
        unwrap, zero = ops.unwrap, ops.zero

        def sparse(lines):
            return tuple(tuple((k, a) for k, e in enumerate(line)
                               if (a := unwrap(e)) != zero)
                         for line in lines)

        self._set(ctx, basis, sparse(columns), sparse(pairing), summands,
                  None, ops)

    @classmethod
    def _from_sparse(cls, ctx, basis, fcols, jrows, summands=None,
                     parts=None, ops=None):
        """A display from sparse raw data, taken as it is: fcols[j] lists
        the (row, raw) entries of column j of F and jrows[i] the (column,
        raw) entries of row i of the pairing, indices ascending, no zero
        and every raw value reduced; ops, when given, is ops_for(ctx)."""
        disp = cls.__new__(cls)
        disp._set(ctx, tuple(basis), fcols, jrows, summands, parts,
                  ops_for(ctx) if ops is None else ops)
        return disp

    def _set(self, ctx, basis, fcols, jrows, summands, parts, ops):
        self.ctx = ctx
        self.basis = basis
        self.sparse_frobenius = fcols
        self.sparse_pairing = jrows
        self.summands = summands
        self.parts = parts
        self._cache = {"ops": ops}

    # -- shape ----------------------------------------------------------------

    @property
    def rank(self):
        return len(self.basis)

    @property
    def half_rank(self):
        return len(self.basis) // 2

    @property
    def u_indices(self):
        return tuple(i for i, b in enumerate(self.basis) if b.family == "u")

    @property
    def v_indices(self):
        return tuple(i for i, b in enumerate(self.basis) if b.family == "v")

    # -- dense views ------------------------------------------------------------

    @property
    def frobenius(self):
        """Matrix of F as rows of scalars (a read-only view, cached)."""
        return self._memo("F", lambda: self._wrap(
            sparse_transpose(self.sparse_frobenius, self.rank)))

    @property
    def pairing(self):
        """Gram matrix of the pairing as rows of scalars (read-only, cached)."""
        return self._memo("J", lambda: self._wrap(self.sparse_pairing))

    def _wrap(self, srows, ops=None):
        """Dense rows of scalars, as tuples, from sparse raw rows."""
        wrap = (ops or self._ops()).wrap
        return tuple(tuple(map(wrap, row)) for row in self._dense(srows))

    def entry(self, i, j):
        return self.frobenius[i][j]

    def label_index(self, label):
        return self.basis.index(label)

    # -- cached raw data --------------------------------------------------------

    def _memo(self, key, make):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = make()
        return value

    def _ops(self):
        return self._cache["ops"]

    def _dense(self, srows):
        """Dense raw rows from sparse ones, of any precision: raw zero is
        the same at every precision."""
        zero = self._ops().zero
        rows = [[zero] * self.rank for _ in srows]
        for row, srow in zip(rows, srows):
            for j, a in srow:
                row[j] = a
        return rows

    def _pivots(self):
        """_linalg.pivot_steps of the matrix of F, cached: the one
        elimination of A per display."""
        return self._memo("pivots", lambda: _linalg.pivot_steps(
            self._ops(), self.sparse_frobenius))

    def _det_valuation(self):
        """(v, integral) from the pivots: v = val det A, capped at N, and
        whether p A^(-1) is integral, which is when there are rank-many
        pivots (so v < N), each of valuation at most 1 (see
        _linalg.adjugate_action).

        A direct sum reads the pivots of its parts: the sum of count * v
        over them, with every part integral, capped to (N, False).  That is
        exact.  Least-valuation pivoting on a block-diagonal A takes each
        block's pivots in the block's own order (ties go by row, then
        column, and the offsets keep that order), so the whole elimination
        stops at N exactly when the parts' sum reaches it."""
        if self.parts is not None:
            vs = [(part._det_valuation(), count) for part, count in self.parts]
            v = sum(count * k for (k, _), count in vs)
            if v >= self.ctx.N:
                return self.ctx.N, False
            return v, all(integral for (_, integral), _ in vs)
        ks = [k for _, k, _, _ in self._pivots()]
        if len(ks) < self.rank:
            return self.ctx.N, False
        return sum(ks), all(k <= 1 for k in ks)

    def _adjugate(self):
        """_linalg.adjugate_action of the matrix of F, cached: (v, W) with
        v = val det A and W = p^v A^(-1) as sparse rows, None when v = N.
        """
        return self._memo("adjA", lambda: _linalg.adjugate_action(
            self._ops(), self.sparse_frobenius, self._pivots()))

    def _non_integral(self):
        """(i, j, valuation) of the entries of W = p^v A^(-1) below valuation
        v - 1, row by row, for v < N: where p A^(-1) = W / p^(v-1) is not
        integral.  Such an entry is one that is nonzero mod p^(v-1), so
        only those get a valuation.  Read only to name the entries once
        _det_valuation has found V not integral."""
        v, w_rows = self._adjugate()
        if v < 2:
            return []
        ops, low = self._ops(), ops_for(self.ctx.at_precision(v - 1))
        return [(i, j, ops.val(e)) for i, row in enumerate(w_rows)
                for j, e in row if low.truncate(e) != low.zero]

    def _verschiebung(self):
        """(context, sparse rows) of V = sigma^(-1)(p A^(-1)), each row a
        list of (column, raw) pairs, columns ascending, no zeros.

        Raises PrecisionError when A is singular mod p^N and ValueError
        when p A^(-1) is not integral.  p A^(-1) = W / p^(v-1) is read from
        W = p^v A^(-1), which adjugate_action computes exactly for one lift
        of A (see there), so it holds at precision N - v + 1.  Another lift
        A + p^N E changes p A^(-1) by p A^(-1) (p^N E) A^(-1) + ..., of
        valuation >= N + 1 - 2m, where A^(-1) has valuation >= -m: m = 0
        when v = 0 and m = 1 when v >= 1 and p A^(-1) is integral.  So V is
        determined, and reported, at precision N + 1 for v = 0, N - 1 for
        v = 1 (lifting the p of module N to p + p^N turns V[0][1] = 1 into
        1 - p^(N-1)), and N - v + 1 <= N - 1 for v >= 2.
        """
        cached = self._cache.get("vrows")
        if cached is not None:
            return cached
        ops, ctx = self._ops(), self.ctx
        v, integral = self._det_valuation()
        if v >= ctx.N:
            raise PrecisionError("V not computable at this precision")
        if not integral:
            raise ValueError(f"p*A^(-1) is not integral (first offending "
                             f"entry {self._non_integral()[0][:2]})")
        w_rows = self._adjugate()[1]
        ctx_v = ctx.at_precision(ctx.N - v + 1 - (v == 1))
        ops_v = ops_for(ctx_v)
        zero, truncate, frob = ops_v.zero, ops_v.truncate, ops_v.frob
        divexact_p, d = ops.divexact_p, ctx.d
        # at v = 1 an entry of W can vanish at precision N - 1: drop it
        rows = [[(j, frob(t, d - 1)) for j, e in row
                 if (t := truncate(divexact_p(e, v - 1))) != zero]
                for row in w_rows]
        cached = self._cache["vrows"] = (ctx_v, rows)
        return cached

    def verschiebung_matrix(self):
        """Matrix of V as (context at reduced precision, rows of scalars)."""
        ctx_v, srows = self._verschiebung()
        return ctx_v, self._wrap(srows, ops_for(ctx_v))

    # -- semilinear application (mainly for tests and diagnostics) -------------

    def apply_frobenius(self, vec):
        """F(sum x_j e_j) = sum_i (sum_j A_ij sigma(x_j)) e_i."""
        twisted = [x.frobenius() for x in vec]
        return tuple(
            sum((self.frobenius[i][j] * twisted[j] for j in range(self.rank)),
                self.ctx.zero())
            for i in range(self.rank))

    def apply_verschiebung(self, vec):
        """V(sum x_j e_j) at the reduced precision of the derived V."""
        ctx_v, srows = self._verschiebung()
        ops_v = ops_for(ctx_v)
        twisted = [ctx_v.frobenius_coords(x.coords, ctx_v.d - 1)
                   for x in vec]
        raws = [ops_v.unwrap(ctx_v.scalar(t)) for t in twisted]
        out = _linalg.mat_mul(ops_v, self._dense(srows), [[x] for x in raws])
        return tuple(ops_v.wrap(row[0]) for row in out)

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        rank = self.rank
        return {
            "context": self.ctx.to_json(),
            "basis": [str(b) for b in self.basis],
            "frobenius": [[self.frobenius[i][j].to_json()
                           for i in range(rank)] for j in range(rank)],
            "pairing": [[e.to_json() for e in row] for row in self.pairing],
            "grading": {"u": list(self.u_indices), "v": list(self.v_indices)},
        }

    def __eq__(self, other):
        return (isinstance(other, DieudonneDisplay)
                and self.ctx.params() == other.ctx.params()
                and self.basis == other.basis
                and self.sparse_frobenius == other.sparse_frobenius
                and self.sparse_pairing == other.sparse_pairing)

    def __repr__(self):
        return (f"DieudonneDisplay(rank={self.rank}, "
                f"p={self.ctx.p}, d={self.ctx.d}, N={self.ctx.N})")


def _check_shapes(rank, columns, pairing):
    """ValueError unless the columns of F and the rows of the pairing make
    two rank x rank matrices."""
    if len(columns) != rank or any(len(c) != rank for c in columns):
        raise ValueError("frobenius matrix shape mismatch")
    if len(pairing) != rank or any(len(r) != rank for r in pairing):
        raise ValueError("pairing matrix shape mismatch")


def display_from_json(obj, ctx=None):
    """The display of a to_json document.  The rank cap and the matrix
    shapes are checked before any label or scalar is parsed.  A malformed
    document raises KeyError (a missing field), TypeError (a field of
    the wrong type) or ValueError (a bad value, CapacityError included),
    and nothing else."""
    rank = len(obj["basis"])
    if rank > 2 * MAX_SPEC_HALF_RANK:
        raise ValueError(f"display has more than {2 * MAX_SPEC_HALF_RANK} "
                         f"basis labels")
    _check_shapes(rank, obj["frobenius"], obj["pairing"])
    if ctx is None:
        ctx = context_from_json(obj["context"])
    basis = [BasisLabel.parse(t) for t in obj["basis"]]
    columns = [[scalar_from_json(ctx, e) for e in col]
               for col in obj["frobenius"]]
    pairing = [[scalar_from_json(ctx, e) for e in row]
               for row in obj["pairing"]]
    disp = DieudonneDisplay(ctx, basis, columns, pairing)
    grading = obj.get("grading")
    if grading is not None:
        if (tuple(grading["u"]) != disp.u_indices
                or tuple(grading["v"]) != disp.v_indices):
            raise ValueError("grading does not match basis families")
    return disp


# ---------------------------------------------------------------------------
# operations


def _parts(display):
    """The display's parts, (summand, count) pairs, when its invariants may
    be read summand by summand: it is a direct sum whose A is invertible at
    N with V integral (v < N and every part integral).  None otherwise, and
    the invariant reads the whole display, so every error text, offending
    entry and violation, with its labels and values, is the whole one."""
    if display.parts is not None and display._det_valuation()[1]:
        return display.parts
    return None


def validate_display(display):
    """Check the display axioms; each failure reports offending entries.

    On a direct sum read by parts (_parts) val det J is the sum of count *
    val det J over the parts, capped at N: exact, as _det_valuation shows
    for A."""
    ops = display._ops()
    ctx = display.ctx
    parts = _parts(display)
    checks = []

    checks.append(CheckResult("frobenius_integral", True,
                              ("entries live in W_N by construction",)))

    v, integral = display._det_valuation()
    if v >= ctx.N:
        checks.append(CheckResult(
            "frobenius_invertible", False,
            ("V not computable at this precision",)))
        checks.append(CheckResult(
            "verschiebung_integral", False,
            ("skipped: V not computable at this precision",)))
    else:
        checks.append(CheckResult("frobenius_invertible", True,
                                  (f"val det = {v}",)))
        bad = [] if integral else display._non_integral()
        checks.append(CheckResult(
            "verschiebung_integral", integral,
            tuple(f"entry ({i},{j}) valuation {k} < {v - 1}"
                  for i, j, k in bad[:8])))

    # J is alternating when its diagonal and every J_ij + J_ji vanish, so
    # only positions holding a nonzero entry, or mirroring one, can fail
    pairs = {(i, j): a for i, row in enumerate(display.sparse_pairing)
             for j, a in row}
    zero = ops.zero
    bad_alt = sorted(
        pos for pos in {(min(ij), max(ij)) for ij in pairs}
        if pos[0] == pos[1]
        or ops.add(pairs.get(pos, zero), pairs.get(pos[::-1], zero)) != zero)
    checks.append(CheckResult(
        "pairing_alternating", not bad_alt,
        tuple(f"entry ({i},{j})" for i, j in bad_alt[:8])))

    if parts is None:
        det_j_val = _linalg.det_valuation(ops, display.sparse_pairing)
    else:
        det_j_val = min(ctx.N, sum(
            count * _linalg.det_valuation(ops, part.sparse_pairing)
            for part, count in parts))
    checks.append(CheckResult(
        "pairing_unimodular", det_j_val == 0,
        () if det_j_val == 0 else (f"val det J = {det_j_val}",)))

    bad_grading = sorted(_same_family_entries(display))
    checks.append(CheckResult(
        "grading_block_antidiagonal", not bad_grading,
        tuple(f"entry ({i},{j})" for i, j in bad_grading[:8])))

    return ValidationReport(tuple(checks))


def _same_family_entries(display):
    """(row, column) of each nonzero entry of F inside one family, column
    by column.  When there is none, F swaps the families; it is graded
    (see the module docstring) when both also have n members."""
    family = [b.family for b in display.basis]
    return ((i, j) for j, col in enumerate(display.sparse_frobenius)
            for i, _ in col if family[i] == family[j])


def newton_slopes(display):
    """Newton polygon of the display: newton_slopes_batch of the display
    alone, cached, whose kernels run on the display's base ops, with no
    lanes to pack (_lane_pairs).  PrecisionError unless the polygon is
    certified at the working precision N (see _linalg.lane_slope_pairs).

    A direct sum read by parts (_parts) takes the union of its parts' lane
    polygons, each multiplicity times the part's count, and as certificate
    term the sum of count * term over the parts.  The blocks of a
    block-diagonal matrix are those of its diagonal blocks, so this is the
    whole display's polygon, and the term decides as the whole one does:
    a term below N has no capped block, and then each part's term is d
    times its own val det A, which add up to d * v."""
    polygon = display._cache.get("slopes")
    if polygon is None:
        parts = _parts(display)
        if parts is None:
            polygon = newton_slopes_batch([display])[0]
        else:
            lanes = [(_lane_pairs([part])[0], count) for part, count in parts]
            [polygon] = _lane_polygons([(
                [(s, count * m) for (pairs, _), count in lanes
                 for s, m in pairs],
                sum(count * term for (_, term), count in lanes))],
                display.ctx.N)
        if polygon is None:
            raise PrecisionError(
                f"insufficient precision: hull vertex at degree 0 has "
                f"valuation >= {display.ctx.N}")
        display._cache["slopes"] = polygon
    return polygon


def newton_slopes_batch(displays):
    """The Newton polygons of a list of displays that share one context
    and one basis: one NewtonPolygon per display, or None for one whose
    polygon is not certified at N, and [] for no display; ValueError when
    the displays do not share them.  Displays whose lanes end with the
    same block hulls share one polygon.  A sweep builds no display: at
    d <= 2 it reads the same lanes' polygons off the unit parts of their
    charpolys' coefficients mod p, in closed form from the deformation
    template (displayzoo._template_charpoly), and at d >= 3 it fills their
    factors straight from the template (displayzoo._template_lanes); this
    display path is the one the tests compare those lanes against.

    Two or more displays run as lanes (_linalg._LaneOps): one twisted
    product and one Berkowitz run per block for all of them, each lane
    reading its own display's polygon (_linalg.lane_slope_pairs).  One
    display runs the same kernels on its base ops, its own one lane.  The
    lane matrix is the n-row factor Z = X sigma(Y) sigma^2(X) ... of the
    module docstring, of 2d factors and scale (2, 1) for odd d (the
    twisted charpoly is h(t^2)) and of d factors and scale (2, 2) for
    even d (it is h * sigma(h)).
    When some display's F is not graded, every lane takes the full d-fold
    product A * sigma(A) * ... with scale (1, 1), whose polygon and
    certificate are the same for a graded lane.  Each polygon is stored in
    its display's slopes cache."""
    if not displays:
        return []
    polygons = _lane_polygons(_lane_pairs(displays), displays[0].ctx.N)
    for display, polygon in zip(displays, polygons):
        if polygon is not None:
            display._cache["slopes"] = polygon
    return polygons


def _lane_polygons(lanes, N):
    """The NewtonPolygon of each lane's pairs when its certificate term
    (see _linalg.lane_slope_pairs) lies below N, None otherwise.  Lanes
    that share one (pairs, term) object share one polygon, which is
    immutable."""
    distinct = {id(lane): lane for lane in lanes}
    made = {key: NewtonPolygon(pairs)
            for key, (pairs, term) in distinct.items() if term < N}
    return [made.get(id(lane)) for lane in lanes]


def _lane_pairs(displays):
    """_linalg.lane_slope_pairs of the displays as lanes, one (pairs, term)
    per display (see newton_slopes_batch).  A single display runs the same
    kernels on its base ops, whose scalars are its raw entries, so its
    blocks X and Y, or its whole columns, are read straight off
    sparse_frobenius; a batch of two or more packs its lanes
    (_lane_columns)."""
    first = displays[0]
    ctx, basis, d = first.ctx, first.basis, first.ctx.d
    if any(display.ctx != ctx or display.basis != basis
           for display in displays):
        raise ValueError("a batch of displays needs one context and one "
                         "basis")
    if len(displays) == 1:
        ops, fcols = first._ops(), first.sparse_frobenius

        def block(idx, pos):
            return [[(pos[i], a) for i, a in fcols[j]] for j in idx]
    else:
        ops = _linalg._LaneOps(first._ops(), len(displays), len(basis))

        def block(idx, pos):
            return ops.packed(_lane_columns(displays, idx, pos))
    try:
        # KeyError: an entry inside one family, whose row is missing from
        # the other family's position map; ValueError: halves of different
        # sizes, for which _basis_halves gives ()
        x, y = [block(idx, pos) for idx, pos in _basis_halves(basis)]
    except (KeyError, ValueError):
        whole = range(len(basis))
        return _linalg.lane_slope_pairs(ops, _linalg.twisted_product(
            ops, _linalg.twisted_factors(ops, block(whole, whole), d)), d,
            (1, 1))
    return _graded_lane_pairs(ops, _linalg.twisted_factors(
        ops, x, _graded_length(d), y))


def _graded_length(d):
    """The number of factors X sigma(Y) sigma^2(X) ... of the lane matrix
    of a graded F: 2d for odd d and d for even d (see
    newton_slopes_batch)."""
    return d << d % 2


def _graded_lane_pairs(lops, factors):
    """_linalg.lane_slope_pairs of the lanes of a graded F whose product
    X sigma(Y) sigma^2(X) ... has the factors sigma^k(X) (even k) and
    sigma^k(Y) (odd k), k < _graded_length(d), as sparse packed columns,
    with scale (2, 1) for odd d and (2, 2) for even d (see
    newton_slopes_batch).  The factors come from displays (_lane_pairs,
    by _linalg.twisted_factors) or, in a sweep at d >= 3, straight from
    the deformation template (displayzoo._template_lanes)."""
    d = lops.d
    return _linalg.lane_slope_pairs(
        lops, _linalg.twisted_product(lops, factors), d, _graded_scale(d))


def _graded_scale(d):
    """The scale of the lane polygons of a graded F: (2, 1) for odd d,
    whose twisted charpoly is h(t^2), and (2, 2) for even d, whose is
    h * sigma(h) (see newton_slopes_batch)."""
    return 2, 2 - d % 2


def _lane_columns(displays, idx, pos):
    """Sparse lane columns of the block of F on the columns idx, rows
    renumbered by pos (KeyError for a row outside it): one pass over the
    displays per column, one lane per display."""
    fill = [displays[0]._ops().zero] * len(displays)
    cols = []
    for j in idx:
        entries = defaultdict(fill.copy)
        for lane, display in enumerate(displays):
            for i, a in display.sparse_frobenius[j]:
                entries[pos[i]][lane] = a
        cols.append([(i, tuple(e)) for i, e in sorted(entries.items())])
    return cols


def polarization_check(display):
    """Violations of <F e_i, e_j> = sigma(<e_i, V e_j>) over all basis pairs.

    V is only determined at precision N - val(det A) + 1, so discrepancies
    are measured there.  Returns (label_i, label_j, discrepancy) triples;
    an empty list means the pairing is compatible with F and V.

    A direct sum read by parts (_parts) returns [] when every part's check
    does: a part's V is determined at N - v_part + 1 >= N - v + 1, so a
    part with no violation at its own precision has none at the sum's.
    Otherwise the whole display is checked, so each violation carries its
    labels and value in the sum.
    """
    parts = _parts(display)
    if parts is not None and not any(
            polarization_check(part) for part, _ in parts):
        return []
    ctx_v, v_rows = display._verschiebung()
    ops_v = ops_for(ctx_v)
    zero, smatvec = ops_v.zero, ops_v.smatvec
    j_rows = _residue_rows(ops_v, display.sparse_pairing)
    a_cols = _residue_rows(ops_v, display.sparse_frobenius)
    violations = []
    for i, (a_col, j_row) in enumerate(zip(a_cols, j_rows)):
        # <F e_i, e_j> = sum_k A_ki J_kj, row i of A^T J; row i of J V
        lhs = smatvec(j_rows, dict(a_col))
        rhs = smatvec(v_rows, dict(j_row))
        for j in sorted(lhs.keys() | rhs.keys()):
            diff = ops_v.sub(lhs.get(j, zero), ops_v.frob(rhs.get(j, zero), 1))
            if not ops_v.is_zero(diff):
                violations.append((display.basis[i], display.basis[j],
                                   ops_v.wrap(diff)))
    return violations


def a_number(display):
    """dim over F_{p^d} of ker(F mod p) intersected with ker(V mod p),
    read from F alone: rank(F mod p) - rank(F^2 mod p).

    On D / pD, FV = VF = p gives ker F = im V and ker V = im F (Demazure,
    Lectures on p-divisible groups, LNM 302, ch. III).  FV = VF = 0 mod p
    gives im V in ker F and im F in ker V, and the dimensions add up to
    the rank r: when V is integral the elementary divisors of A are 1 and
    p, A mod p has rank #1 and p A^(-1) mod p, of the rank of V mod p,
    has rank #p.  So ker F and ker V meet in ker F on im F, of dimension
    rank F - rank F^2, and F^2 x = A sigma(A) sigma^2(x) has the rank of
    A sigma(A) mod p.  The rank of A mod p is the number of unit pivots
    (_unit_pivots, which also raises V's own errors when V is not
    integral); this holds for every display, graded or not.  Ranks add
    over a direct sum, so one read by parts (_parts) sums count * a over
    them.
    """
    parts = _parts(display)
    if parts is not None:
        return sum(count * a_number(part) for part, count in parts)
    units = _unit_pivots(display)
    ops1 = ops_for(display.ctx.at_precision(1))
    a_bar = _residue_rows(ops1, display.sparse_frobenius)
    return len(units) - _linalg.rank(ops1, _linalg.twisted_product(
        ops1, _linalg.twisted_factors(ops1, a_bar, 2)))


def _unit_pivots(display):
    """Columns of the unit pivots of the display's elimination of A; their
    number is the rank of A mod p, since least-valuation pivoting takes
    every unit pivot first.  Unless V is integral this calls
    display._verschiebung, which raises its PrecisionError or ValueError
    with its own text."""
    if not display._det_valuation()[1]:
        display._verschiebung()
    return [c for c, k, _, _ in display._pivots() if k == 0]


def _residue_rows(ops, srows):
    """The matrix with the given sparse raw rows (or columns), of any
    precision, reduced to the precision of ops: sparse rows of (column,
    value) pairs, zeros dropped."""
    truncate, zero = ops.truncate, ops.zero
    return [[(j, t) for j, a in srow if (t := truncate(a)) != zero]
            for srow in srows]


def p_rank(display):
    """Multiplicity of slope 0 in the Newton polygon."""
    return newton_slopes(display).multiplicity(0)


def signature(display):
    """Dimensions over the residue field of the u- and v-graded parts of
    D / V D.

    For a graded F, V D mod p = im V = ker F (see a_number), and F maps
    the u-part into the v-part by Y and the v-part into the u-part by X,
    so the u-part of D / V D has dimension n - dim ker Y = rank Y mod p,
    and the v-part rank X mod p.  The rows of A in the u-family hold only
    v-columns and vice versa, so the elimination of _unit_pivots never
    mixes the blocks: its unit pivots in u-columns are those of Y, and
    those in v-columns those of X.  Families of different sizes force
    det A = 0, and both routes then raise V's PrecisionError.  A display
    whose F has an entry inside one family (library input only) reads V:
    each part's rank minus the F_{p^d} rank of the block of V mod p
    mapping the other part into it.  Both dimensions add over a direct
    sum, so one read by parts (_parts) sums count times its parts'."""
    parts = _parts(display)
    if parts is not None:
        sigs = [(signature(part), count) for part, count in parts]
        return tuple(sum(count * sig[k] for sig, count in sigs)
                     for k in (0, 1))
    if not any(_same_family_entries(display)):
        families = [display.basis[c].family for c in _unit_pivots(display)]
        return families.count("u"), families.count("v")
    ops1 = ops_for(display.ctx.at_precision(1))
    b_bar = _residue_rows(ops1, display._verschiebung()[1])
    uu, vv = display.u_indices, display.v_indices

    def block_rank(rows_idx, cols_idx):
        cols = set(cols_idx)
        return _linalg.rank(ops1, [[(j, e) for j, e in b_bar[i] if j in cols]
                                   for i in rows_idx])

    return (len(uu) - block_rank(uu, vv), len(vv) - block_rank(vv, uu))
