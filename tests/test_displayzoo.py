from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gustrata import (DeformationPoint, deformation_display, direct_sum,
                      default_precision, expected_module, lambda_min,
                      make_context, module_M, module_N, newton_slopes,
                      parse_module_spec, polarization_check, signature,
                      supersingular_module, validate_display, NewtonPolygon)
from gustrata import displayzoo
from gustrata.displayzoo import MAX_SPEC_HALF_RANK, ModuleSpec
from gustrata.fcrystal import U, V


def ctx_for(n, p=3, d=1):
    return make_context(p, d, default_precision(n, d))


class TestModuleN:
    def test_structure(self):
        ctx = ctx_for(1)
        D = module_N(ctx)
        assert [str(b) for b in D.basis] == ["u0", "v0"]
        # F v0 = -u0, F u0 = p v0
        assert D.entry(0, 1) == ctx.from_int(-1)
        assert D.entry(1, 0) == ctx.from_int(ctx.p)
        assert D.pairing[0][1] == ctx.one()
        assert validate_display(D).ok
        assert signature(D) == (0, 1)


class TestModuleM:
    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            module_M(ctx_for(2), 1)

    def test_relations_m4(self):
        ctx = ctx_for(4)
        D = module_M(ctx, 4)
        # F u1 = (+1) v4 for even m
        assert D.entry(D.label_index(V(4)), D.label_index(U(1))) == ctx.one()
        # F v1 = p u4
        assert D.entry(D.label_index(U(4)),
                       D.label_index(V(1))) == ctx.from_int(ctx.p)
        # F v3 = u2
        assert D.entry(D.label_index(U(2)), D.label_index(V(3))) == ctx.one()
        # F u3 = p v2
        assert D.entry(D.label_index(V(2)),
                       D.label_index(U(3))) == ctx.from_int(ctx.p)

    def test_pairing_signs(self):
        ctx = ctx_for(3)
        D = module_M(ctx, 3)
        assert D.pairing[D.label_index(U(1))][D.label_index(V(1))] == \
            ctx.from_int(-1)
        assert D.pairing[D.label_index(U(2))][D.label_index(V(2))] == \
            ctx.one()

    @pytest.mark.parametrize("m,expect", [
        (2, [(Fraction(0), 2), (Fraction(1), 2)]),
        (7, [(Fraction(1, 2), 14)]),
        (6, [(Fraction(1, 3), 6), (Fraction(2, 3), 6)]),
    ])
    def test_slope_examples(self, m, expect):
        assert newton_slopes(module_M(ctx_for(m), m)) == \
            NewtonPolygon(expect)


class TestDirectSum:
    def test_rank_and_validation(self):
        ctx = ctx_for(3)
        S = direct_sum(module_M(ctx, 2), module_N(ctx))
        assert S.rank == 6
        assert validate_display(S).ok

    def test_relabeling_on_collision(self):
        ctx = ctx_for(3)
        S = direct_sum(module_N(ctx), module_N(ctx))
        assert [str(b) for b in S.basis] == ["u0", "v0", "u1", "v1"]
        assert S.summands is not None
        assert S.summands[1] == (("u0", "u1"), ("v0", "v1"))

    def test_bumped_labels_take_the_smallest_free_index(self):
        # M(2) finds u1, u2, v1, v2 taken: u1 -> u0 (free), then u2 -> u4
        # (u0..u3 taken); each N after that takes the next free pair
        ctx = ctx_for(10)
        S = parse_module_spec("M(3)+M(2)+N^3+M(2)").build(ctx)
        assert [str(b) for b in S.basis] == [
            "u1", "u2", "u3", "v1", "v2", "v3",
            "u0", "u4", "v0", "v4",
            "u5", "v5", "u6", "v6", "u7", "v7",
            "u8", "u9", "v8", "v9"]
        assert S.summands == (
            (("u1", "u1"), ("u2", "u2"), ("u3", "u3"),
             ("v1", "v1"), ("v2", "v2"), ("v3", "v3")),
            (("u1", "u0"), ("u2", "u4"), ("v1", "v0"), ("v2", "v4")),
            (("u0", "u5"), ("v0", "v5")),
            (("u0", "u6"), ("v0", "v6")),
            (("u0", "u7"), ("v0", "v7")),
            (("u1", "u8"), ("u2", "u9"), ("v1", "v8"), ("v2", "v9")))

    def test_triple_sum_passes(self):
        ctx = ctx_for(6)
        S = direct_sum(direct_sum(module_M(ctx, 4), module_N(ctx)),
                       module_N(ctx))
        assert S.rank == 12
        assert validate_display(S).ok
        assert polarization_check(S) == []

    @pytest.mark.parametrize("spec", ["N+N+N+N+N", "M(3)+N+ss(4)+N"])
    def test_many_summands_match_pairwise_sums(self, spec):
        ctx = ctx_for(6)
        parts = [parse_module_spec(t).build(ctx) for t in spec.split("+")]
        once = direct_sum(*parts)
        folded = parts[0]
        for part in parts[1:]:
            folded = direct_sum(folded, part)
        assert once.basis == folded.basis
        assert once.summands == folded.summands
        assert once.frobenius == folded.frobenius
        assert once.pairing == folded.pairing

    def test_context_mismatch(self):
        with pytest.raises(ValueError, match="context"):
            direct_sum(module_N(ctx_for(1)), module_N(ctx_for(2)))


class TestExpectedModule:
    def test_rank_bookkeeping(self):
        ctx = ctx_for(3)
        D = expected_module(ctx, 3, 1)  # M(2) + N
        assert D.rank == 6
        ctx = ctx_for(4)
        assert expected_module(ctx, 4, 1).rank == 8  # M(4), no N factor

    def test_n5_j1(self):
        ctx = ctx_for(5)
        D = expected_module(ctx, 5, 1)
        P = newton_slopes(D)
        assert P == NewtonPolygon([(Fraction(1, 4), 4), (Fraction(1, 2), 2),
                                   (Fraction(3, 4), 4)])
        assert P.min_slope() == lambda_min(5, 1) == Fraction(1, 4)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_smallest_slope_matches_formula(self, n):
        ctx = ctx_for(n)
        for j in range(1, n // 2 + 1):
            P = newton_slopes(expected_module(ctx, n, j))
            assert P.min_slope() == lambda_min(n, j)
            assert P.rank == 2 * n

    def test_out_of_range_j(self):
        with pytest.raises(ValueError):
            expected_module(ctx_for(5), 5, 3)
        with pytest.raises(ValueError):
            expected_module(ctx_for(5), 5, 0)


class TestSupersingular:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_slopes_half(self, n):
        D = supersingular_module(ctx_for(n), n)
        assert D.rank == 2 * n
        assert newton_slopes(D) == NewtonPolygon([(Fraction(1, 2), 2 * n)])
        assert signature(D) == (1, n - 1)

    def test_even_case_is_sum(self):
        ctx = ctx_for(4)
        assert supersingular_module(ctx, 4) == \
            direct_sum(module_M(ctx, 3), module_N(ctx))


class TestDeformationPoint:
    def test_odd_indices(self):
        ctx = ctx_for(5)
        pt = DeformationPoint.from_ints(ctx, 5, (1, 0, 2, 0))
        assert pt.indices == (2, 3, 4, 5)
        assert pt.parameter(4).to_int() == 2

    def test_even_indices(self):
        ctx = ctx_for(4)
        pt = DeformationPoint.from_ints(ctx, 4, (1, 2, 0))
        assert pt.indices == (0, 2, 3)
        assert pt.parameter(0).to_int() == 1

    def test_wrong_length(self):
        ctx = ctx_for(5)
        with pytest.raises(ValueError, match="parameters"):
            DeformationPoint.from_ints(ctx, 5, (1, 0))

    @pytest.mark.parametrize("n,d", [(3, 1), (4, 2)])
    def test_point_builds_at_doubled_precision(self, n, d):
        # a precision retry passes the point made at N as it is
        ctx = ctx_for(n, d=d)
        ctx2 = ctx.at_precision(2 * ctx.N)
        ints = tuple(range(1, n))
        pt = DeformationPoint.from_ints(ctx, n, ints)
        assert deformation_display(ctx2, pt) == deformation_display(
            ctx2, DeformationPoint.from_ints(ctx2, n, ints))


class TestDeformationDisplay:
    def test_zero_point_equals_supersingular_odd(self):
        ctx = ctx_for(5)
        pt = DeformationPoint.from_ints(ctx, 5, (0,) * 4)
        assert deformation_display(ctx, pt) == supersingular_module(ctx, 5)

    def test_zero_point_equals_supersingular_even(self):
        ctx = ctx_for(6)
        pt = DeformationPoint.from_ints(ctx, 6, (0,) * 5)
        assert deformation_display(ctx, pt) == supersingular_module(ctx, 6)

    def test_odd_example_slopes(self):
        # s2 nonzero at n=3 lands on the positive-p-rank polygon
        ctx = ctx_for(3)
        D = deformation_display(ctx,
                                DeformationPoint.from_ints(ctx, 3, (1, 0)))
        assert newton_slopes(D) == NewtonPolygon(
            [(Fraction(0), 2), (Fraction(1, 2), 2), (Fraction(1), 2)])

    def test_even_s0_gives_generic_polygon(self):
        # s0 alone moves an even-n deformation to the xi_2 polygon: the
        # pairing-compatible family carries the coupling of s0 into F u2
        ctx = ctx_for(4, p=2)
        D = deformation_display(ctx,
                                DeformationPoint.from_ints(ctx, 4, (1, 0, 0)))
        assert polarization_check(D) == []
        assert newton_slopes(D) == NewtonPolygon(
            [(Fraction(1, 4), 4), (Fraction(3, 4), 4)])

    def test_teichmuller_coefficients(self):
        ctx = ctx_for(3)
        pt = DeformationPoint.from_ints(ctx, 3, (2, 0))
        D = deformation_display(ctx, pt)
        lifted = ctx.teichmuller(ctx.field_from_int(2))
        # F v3 = u2 + t(s2) u1
        assert D.entry(D.label_index(U(1)), D.label_index(V(3))) == lifted

    @pytest.mark.parametrize("n,p,d", [(3, 3, 1), (4, 2, 1), (5, 2, 1),
                                       (3, 2, 2), (6, 2, 1)])
    def test_signature_constant_on_family(self, n, p, d):
        import itertools
        ctx = ctx_for(n, p=p, d=d)
        q = p ** d
        pts = itertools.product(range(q), repeat=n - 1)
        for ints in itertools.islice(pts, 8):
            D = deformation_display(
                ctx, DeformationPoint.from_ints(ctx, n, ints))
            assert signature(D) == (1, n - 1)
            assert validate_display(D).ok

    def test_field_mismatch_rejected(self):
        ctx3 = ctx_for(3, p=3)
        ctx2 = ctx_for(3, p=2)
        pt = DeformationPoint.from_ints(ctx2, 3, (1, 0))
        with pytest.raises(ValueError, match="residue field"):
            deformation_display(ctx3, pt)


class TestModuleSpecGrammar:
    def test_atoms(self):
        assert str(parse_module_spec("N")) == "N"
        assert str(parse_module_spec("M(4)")) == "M(4)"
        assert str(parse_module_spec("ss(6)")) == "ss(6)"

    def test_sum_and_power(self):
        spec = parse_module_spec("M(2) + N^2")
        assert spec.half_rank == 4
        ctx = ctx_for(4)
        D = spec.build(ctx)
        assert D.rank == 8
        assert newton_slopes(D) == NewtonPolygon(
            [(Fraction(0), 2), (Fraction(1, 2), 4), (Fraction(1), 2)])

    def test_deformation_spec(self):
        spec = parse_module_spec("def(5; s2=1, s4=1)")
        ctx = ctx_for(5, p=2)
        D = spec.build(ctx)
        assert D.rank == 10
        assert str(spec) == "def(5; s2=1, s4=1)"

    def test_spec_matches_direct_construction(self):
        ctx = ctx_for(3)
        D1 = parse_module_spec("def(3; s2=1)").build(ctx)
        D2 = deformation_display(ctx,
                                 DeformationPoint.from_ints(ctx, 3, (1, 0)))
        assert D1 == D2

    def test_bad_specs(self):
        for text in ("", "Q(3)", "M()", "M(x)", "def(4; s5=1)", "N^0",
                     "M(1)"):
            with pytest.raises(ValueError):
                spec = parse_module_spec(text)
                spec.build(ctx_for(4))

    def test_half_rank_limit(self):
        for text in ("M(1100)", f"N^{MAX_SPEC_HALF_RANK}",
                     f"M({MAX_SPEC_HALF_RANK})",
                     f"M(4000) + N^{MAX_SPEC_HALF_RANK - 4000}"):
            assert parse_module_spec(text).half_rank <= MAX_SPEC_HALF_RANK
        for text in (f"N^{MAX_SPEC_HALF_RANK + 1}", "M(4000) + N^97",
                     "N^99999999999", "M(200000)", "ss(100001)",
                     "def(5000; s2=1)", "M(-100000) + N^100000",
                     "M(0)^5000"):
            with pytest.raises(ValueError, match="exceeds half rank 4096"):
                parse_module_spec(text)

    def test_even_parameter_indices(self):
        spec = parse_module_spec("def(4; s0=1, s3=1)")
        D = spec.build(ctx_for(4, p=2))
        assert D.rank == 8


# small contexts for the summand-reuse property: building needs no precision
SPEC_CONTEXTS = [make_context(3, 1, 4), make_context(2, 2, 3)]


@st.composite
def spec_terms(draw, ctx):
    """Text of one term: N, M(m), ss(n) or def(n; ...), with a power."""
    kind = draw(st.sampled_from(["N", "M", "ss", "def"]))
    if kind == "N":
        text = "N"
    elif kind in ("M", "ss"):
        text = f"{kind}({draw(st.integers(2 if kind == 'M' else 3, 4))})"
    else:
        n = draw(st.integers(3, 5))
        indices = (range(2, n + 1) if n % 2 else [0] + list(range(2, n)))
        chosen = draw(st.lists(st.sampled_from(list(indices)), unique=True,
                               max_size=3))
        values = [draw(st.integers(0, ctx.p ** ctx.d - 1)) for _ in chosen]
        text = f"def({n}; " + ", ".join(
            f"s{i}={v}" for i, v in zip(chosen, values)) + ")"
    power = draw(st.integers(1, 3))
    return text if power == 1 else f"{text}^{power}"


class TestSummandReuse:
    """ModuleSpec.build builds each distinct term once and sums the same
    display at every repeat; the result is that of fresh builds."""

    @settings(max_examples=30, deadline=2000)
    @given(data=st.data())
    def test_equals_sum_of_fresh_builds(self, data):
        ctx = data.draw(st.sampled_from(SPEC_CONTEXTS))
        text = " + ".join(data.draw(st.lists(spec_terms(ctx), min_size=1,
                                             max_size=4)))
        spec = parse_module_spec(text)
        built = spec.build(ctx)
        fresh = [ModuleSpec((term,)).build(ctx) for term in spec.terms]
        want = fresh[0] if len(fresh) == 1 else direct_sum(*fresh)
        assert built.basis == want.basis
        assert built.sparse_frobenius == want.sparse_frobenius
        assert built.sparse_pairing == want.sparse_pairing
        assert built.summands == want.summands

    def test_each_distinct_term_built_once(self, monkeypatch):
        built = []
        for name in ("module_N", "module_M"):
            original = getattr(displayzoo, name)
            monkeypatch.setattr(
                displayzoo, name,
                lambda *args, _f=original, _n=name: built.append(_n)
                or _f(*args))
        D = parse_module_spec("N^5 + M(2) + N + M(3)^2").build(ctx_for(14))
        assert sorted(built) == ["module_M", "module_M", "module_N"]
        assert D.rank == 28 and len(D.summands) == 9
