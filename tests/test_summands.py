"""Direct sums read summand by summand, against their whole twins.

A direct sum records its distinct leaf summands with their counts (the
parts field), and its invariants read them when its A is invertible at N
with V integral.  Each sum here is compared with its twin
display_from_json(D.to_json()), which has no parts and so reads the whole
display: the same polygon, a-number, p-rank, signature, validation report
and polarization violations, and the same exception type and text where
they raise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gustrata import (DeformationPoint, DieudonneDisplay, PrecisionError,
                      a_number, default_precision, deformation_display,
                      direct_sum, display_from_json, make_context, module_M,
                      module_N, newton_slopes, p_rank, polarization_check,
                      signature, supersingular_module, validate_display)
from gustrata.displayzoo import parse_module_spec
from gustrata.fcrystal import _parts


def spec_display(text, p=3, d=1, N=None):
    spec = parse_module_spec(text)
    if N is None:
        N = default_precision(spec.half_rank, d)
    return spec.build(make_context(p, d, N))


def scaled_column(display, j):
    """The display with column j of F multiplied by p, as library input."""
    ops = display._ops()
    cols = list(display.sparse_frobenius)
    cols[j] = tuple((i, e) for i, a in cols[j]
                    if (e := ops.scale(ops.ctx.p, a)) != ops.zero)
    return DieudonneDisplay._from_sparse(display.ctx, display.basis,
                                         tuple(cols), display.sparse_pairing)


def flipped_sign(ctx):
    """N with F v0 = +u0: valid, but <Fx, y> = sigma(<x, Vy>) fails."""
    good = module_N(ctx)
    cols = [[good.frobenius[i][j] for i in range(2)] for j in range(2)]
    cols[1][0] = ctx.one()
    return DieudonneDisplay(ctx, good.basis, cols, good.pairing)


def library_distinct(ctx):
    # equal summands as distinct objects, and a sum of two equal sums
    ab = direct_sum(module_N(ctx), module_M(ctx, 3))
    return direct_sum(ab, module_N(ctx),
                      direct_sum(module_N(ctx), module_M(ctx, 3)))


# (id, maker of a fresh display, whether the invariants read the parts)
GRID = [
    ("N^24", lambda: spec_display("N^24"), True),
    ("M(6)+N^6 d=2", lambda: spec_display("M(6)+N^6", d=2), True),
    ("def+N^2", lambda: spec_display("def(8; s0=1, s2=2)+N^2"), True),
    ("nested ss(6)+ss(6)+N d=2",
     lambda: spec_display("ss(6)+ss(6)+N", d=2), True),
    ("library distinct equal summands",
     lambda: library_distinct(make_context(3, 1, 30)), True),
    # v = 6 < N, so the parts are read; each part's term 2 lies below
    # N = 8 and the sum's 12 does not
    ("N^6 d=2 N=8 sum not certified",
     lambda: spec_display("N^6", d=2, N=8), True),
    ("M(6)+N^6 d=2 N=13 sum not certified",
     lambda: spec_display("M(6)+N^6", d=2, N=13), True),
    # v = 6 >= N = 5: V is computable for each part, not for the sum
    ("N^6 N=5 V not computable", lambda: spec_display("N^6", N=5), False),
    ("N^3 N=1 singular", lambda: spec_display("N^3", N=1), False),
    ("p A^-1 not integral",
     lambda: (lambda ctx: direct_sum(module_N(ctx), scaled_column(
         module_N(ctx), 0), module_N(ctx)))(make_context(3, 1, 12)), False),
    ("polarization violation",
     lambda: (lambda ctx: direct_sum(module_N(ctx), flipped_sign(ctx),
                                     supersingular_module(ctx, 4)))(
         make_context(3, 1, 20)), True),
]

INVARIANTS = {
    "polygon": newton_slopes,
    "a_number": a_number,
    "p_rank": p_rank,
    "signature": signature,
    "validation": lambda D: validate_display(D).to_json(),
    "polarization": lambda D: [(str(i), str(j), s.to_json())
                               for i, j, s in polarization_check(D)],
}


def outcome(invariant, display):
    """("ok", value) or (exception type, text) of the invariant."""
    try:
        return "ok", invariant(display)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", INVARIANTS)
@pytest.mark.parametrize("label,make,by_parts", GRID,
                         ids=[g[0] for g in GRID])
def test_sum_matches_whole_twin(label, make, by_parts, name):
    display = make()
    twin = display_from_json(display.to_json())
    assert display.parts is not None and twin.parts is None
    assert (_parts(display) is not None) == by_parts
    invariant = INVARIANTS[name]
    assert outcome(invariant, display) == outcome(invariant, twin)


def test_grid_meets_every_outcome():
    # the grid is not vacuous: it raises each error, certifies, fails the
    # certificate only as a sum and finds polarization violations
    seen = set()
    for _, make, _ in GRID:
        for name, invariant in INVARIANTS.items():
            kind, value = outcome(invariant, make())
            seen.add((name, kind if kind != "ok" else bool(value)
                      if name == "polarization" else "ok"))
    assert {("polygon", PrecisionError), ("polygon", "ok"),
            ("a_number", ValueError), ("a_number", PrecisionError),
            ("polarization", True), ("polarization", False)} <= seen
    # every part of the sum that fails only as a sum is certified
    display = spec_display("M(6)+N^6", d=2, N=13)
    assert all(newton_slopes(part) for part, _ in display.parts)
    with pytest.raises(PrecisionError):
        newton_slopes(display)


class TestPartsField:
    def test_repeats_count_one_part(self):
        ctx = make_context(3, 2, 40)
        display = parse_module_spec("M(6)+N^6").build(ctx)
        (m6, one), (n, six) = display.parts
        assert (one, six) == (1, 6)
        assert (m6.rank, n.rank) == (12, 2)

    def test_nested_sums_are_flattened(self):
        display = spec_display("ss(6)+ss(6)+N", d=2)
        # ss(6) = M(5) + N is built once and summed twice; the last N is
        # equal to ss(6)'s but a distinct object
        assert [(part.rank, count) for part, count in display.parts] == [
            (10, 2), (2, 2), (2, 1)]
        assert display.parts[1][0] is not display.parts[2][0]
        assert display.parts[1][0] == display.parts[2][0]

    def test_distinct_objects_are_distinct_parts(self):
        display = library_distinct(make_context(3, 1, 30))
        assert [(part.rank, count) for part, count in display.parts] == [
            (2, 1), (6, 1), (2, 1), (2, 1), (6, 1)]

    def test_no_parts_outside_direct_sums(self):
        ctx = make_context(3, 1, 20)
        point = DeformationPoint.from_ints(ctx, 4, (1, 2, 0))
        for display in (module_N(ctx), module_M(ctx, 4),
                        deformation_display(ctx, point),
                        parse_module_spec("M(3)").build(ctx),
                        display_from_json(spec_display("N^2").to_json())):
            assert display.parts is None


@st.composite
def deformation_sums(draw):
    """A context and a direct sum of deformation displays, some repeated
    as one object, some with a column of F times p (so p A^(-1) need not
    be integral), at a precision that may cap val det A."""
    p = draw(st.sampled_from([2, 3]))
    ctx = make_context(p, draw(st.sampled_from([1, 2])),
                       draw(st.integers(1, 30)))
    leaves = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(3, 6))
        ints = draw(st.lists(st.integers(0, p - 1), min_size=n - 1,
                             max_size=n - 1))
        leaf = deformation_display(ctx, DeformationPoint.from_ints(
            ctx, n, ints))
        if draw(st.booleans()):
            leaf = scaled_column(leaf, draw(st.integers(0, 2 * n - 1)))
        leaves.append(leaf)
    picks = draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=5))
    return direct_sum(*picks)


@settings(max_examples=60, deadline=2000)
@given(display=deformation_sums())
def test_det_valuation_from_parts_matches_whole(display):
    whole = DieudonneDisplay._from_sparse(
        display.ctx, display.basis, display.sparse_frobenius,
        display.sparse_pairing)
    assert display.parts is not None and whole.parts is None
    assert display._det_valuation() == whole._det_valuation()


def test_det_valuation_property_meets_every_case():
    # the property above sees capped, integral and non-integral sums
    ctx = make_context(3, 1, 9)
    point = DeformationPoint.from_ints(ctx, 4, (1, 2, 0))
    leaf = deformation_display(ctx, point)
    assert direct_sum(leaf, leaf)._det_valuation() == (8, True)
    assert direct_sum(leaf, leaf, leaf)._det_valuation() == (9, False)
    bad = scaled_column(leaf, 0)
    assert direct_sum(leaf, bad)._det_valuation()[1] is False
