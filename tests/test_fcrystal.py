import io
import json
from fractions import Fraction

import pytest

from gustrata import (DieudonneDisplay, NewtonPolygon, PrecisionError,
                      a_number, deformation_display, direct_sum,
                      display_from_json, make_context, module_M, module_N,
                      newton_slopes, p_rank, polarization_check, signature,
                      supersingular_module, validate_display,
                      default_precision, DeformationPoint)
from gustrata import _linalg, cli, fcrystal
from gustrata.displayzoo import MAX_SPEC_HALF_RANK, parse_module_spec
from gustrata.fcrystal import BasisLabel, U, V

from _oracles import expected_M_polygon, leibniz_charpoly_int


def ctx_for(n, p=3, d=1):
    return make_context(p, d, default_precision(n, d))


class TestNewtonPolygon:
    def test_merge_and_sort(self):
        P = NewtonPolygon([(Fraction(1, 2), 2), (Fraction(0), 1),
                           (Fraction(1, 2), 4)])
        assert P.slopes == ((Fraction(0), 1), (Fraction(1, 2), 6))
        assert P.rank == 7
        assert P.min_slope() == 0
        assert P.multiplicity(Fraction(1, 2)) == 6

    def test_invariant_predicates(self):
        P = NewtonPolygon([(Fraction(1, 4), 4), (Fraction(3, 4), 4)])
        assert P.is_symmetric()
        assert P.has_integral_breakpoints()
        assert P.in_unit_interval()
        assert P.slope_sum() == 4
        Q = NewtonPolygon([(Fraction(1, 4), 4), (Fraction(1, 2), 2)])
        assert not Q.is_symmetric()
        R = NewtonPolygon([(Fraction(1, 3), 4)])
        assert not R.has_integral_breakpoints()

    def test_union(self):
        P = NewtonPolygon([(Fraction(0), 2), (Fraction(1), 2)])
        Q = NewtonPolygon([(Fraction(1, 2), 2)])
        assert P.union(Q) == NewtonPolygon(
            [(Fraction(0), 2), (Fraction(1, 2), 2), (Fraction(1), 2)])

    def test_json_round_trip(self):
        P = NewtonPolygon([(Fraction(1, 4), 4), (Fraction(3, 4), 4)])
        obj = P.to_json()
        assert obj["slopes"][0] == {"num": 1, "den": 4, "mult": 4}
        assert NewtonPolygon.from_json(json.loads(json.dumps(obj))) == P


class TestValidateDisplay:
    def test_zoo_passes(self):
        ctx = ctx_for(4)
        for D in (module_N(ctx), module_M(ctx, 2), module_M(ctx, 4),
                  supersingular_module(ctx, 4)):
            report = validate_display(D)
            assert report.ok, report.to_json()

    def test_flipped_pairing_fails_alternating(self):
        # M(2) with <u_i, v_j> = +delta_ij upper entries but the original
        # lower entries is no longer alternating
        ctx = ctx_for(2)
        good = module_M(ctx, 2)
        rank = good.rank
        pairing = [list(row) for row in good.pairing]
        for i, a in enumerate(good.basis):
            for j, b in enumerate(good.basis):
                if a.family == "u" and b.family == "v" and a.index == b.index:
                    pairing[i][j] = ctx.one()
        cols = [[good.frobenius[i][j] for i in range(rank)]
                for j in range(rank)]
        bad = DieudonneDisplay(ctx, good.basis, cols, pairing)
        report = validate_display(bad)
        failed = {c.name for c in report.failed()}
        assert "pairing_alternating" in failed

    def test_grading_violation_detected(self):
        ctx = ctx_for(2)
        good = module_N(ctx)
        cols = [[good.frobenius[i][j] for i in range(2)] for j in range(2)]
        cols[0][0] = ctx.one()  # F u0 gains a u0 component
        bad = DieudonneDisplay(ctx, good.basis, cols, good.pairing)
        failed = {c.name for c in validate_display(bad).failed()}
        assert "grading_block_antidiagonal" in failed

    def test_singular_reported(self):
        ctx = ctx_for(2)
        zero = ctx.zero()
        cols = [[zero, zero], [zero, zero]]
        J = module_N(ctx).pairing
        bad = DieudonneDisplay(ctx, (U(0), V(0)), cols, J)
        report = validate_display(bad)
        msgs = [detail for c in report.failed() for detail in c.details]
        assert any("V not computable at this precision" in m for m in msgs)

    def test_report_shape(self):
        report = validate_display(module_N(ctx_for(2)))
        names = [c.name for c in report.checks]
        assert names == ["frobenius_integral", "frobenius_invertible",
                         "verschiebung_integral", "pairing_alternating",
                         "pairing_unimodular", "grading_block_antidiagonal"]


class TestNewtonSlopes:
    def test_module_N(self):
        # F^2 v0 = F(-u0) = -p v0, so both slopes are 1/2
        D = module_N(ctx_for(1))
        F2v0 = D.apply_frobenius(D.apply_frobenius(
            (D.ctx.zero(), D.ctx.one())))
        assert F2v0 == (D.ctx.zero(), D.ctx.from_int(-D.ctx.p))
        assert newton_slopes(D) == NewtonPolygon([(Fraction(1, 2), 2)])

    def test_module_M2(self):
        # F^2 u1 = u1 and F^2 v1 = p^2 v1 by hand
        D = module_M(ctx_for(2), 2)
        e_u1 = tuple(D.ctx.one() if i == 0 else D.ctx.zero()
                     for i in range(4))
        assert D.apply_frobenius(D.apply_frobenius(e_u1)) == e_u1
        assert newton_slopes(D) == NewtonPolygon(
            [(Fraction(0), 2), (Fraction(1), 2)])

    def test_module_M3_supersingular(self):
        assert newton_slopes(module_M(ctx_for(3), 3)) == NewtonPolygon(
            [(Fraction(1, 2), 6)])

    def test_module_M4_against_leibniz_oracle(self):
        ctx = ctx_for(4)
        D = module_M(ctx, 4)
        raw = [[e.coords[0] for e in row] for row in D.frobenius]
        cp = leibniz_charpoly_int(raw, ctx.q)
        # oracle polygon from coefficient valuations
        def val(c):
            if c == 0:
                return ctx.N
            v = 0
            while c % ctx.p == 0:
                c //= ctx.p
                v += 1
            return v
        vals = [val(c) for c in cp]
        assert vals[0] == 4 and vals[8] == 0
        assert newton_slopes(D) == NewtonPolygon(
            [(Fraction(1, 4), 4), (Fraction(3, 4), 4)])

    @pytest.mark.parametrize("m", range(2, 9))
    def test_closed_form_small_m(self, m):
        assert newton_slopes(module_M(ctx_for(m), m)) == expected_M_polygon(m)

    def test_direct_sum_is_multiset_union(self):
        ctx = ctx_for(3)
        D1, D2 = module_M(ctx, 2), module_N(ctx)
        assert newton_slopes(direct_sum(D1, D2)) == \
            newton_slopes(D1).union(newton_slopes(D2))

    @pytest.mark.parametrize("kind", ["M3", "M4", "def"])
    def test_d2_slopes_against_linearization_oracle(self, kind):
        # the Z_p-linear blowup of F must show each slope with multiplicity
        # scaled by d, independently of the twisted-product route
        from _oracles import blowup_slope_pairs
        ctx = ctx_for(4, p=3, d=2)
        if kind == "M3":
            D = module_M(ctx, 3)
        elif kind == "M4":
            D = module_M(ctx, 4)
        else:
            D = deformation_display(
                ctx, DeformationPoint.from_ints(ctx, 3, (5, 2)))
        P = newton_slopes(D)
        doubled = NewtonPolygon([(s, m * 2) for s, m in P.slopes])
        assert NewtonPolygon(blowup_slope_pairs(D)) == doubled

    def test_base_extension_invariance(self):
        for p in (2, 3):
            P1 = newton_slopes(module_M(ctx_for(3, p=p, d=1), 3))
            P2 = newton_slopes(module_M(ctx_for(3, p=p, d=2), 3))
            assert P1 == P2

    def test_precision_doubling_invariance(self):
        ctx = make_context(3, 1, 20)
        ctx2 = make_context(3, 1, 40)
        assert newton_slopes(module_M(ctx, 4)) == \
            newton_slopes(module_M(ctx2, 4))

    def test_insufficient_precision_raises(self):
        ctx = make_context(3, 1, 2)  # det has valuation 3 >= N
        with pytest.raises(PrecisionError):
            newton_slopes(module_M(ctx, 3))

    def test_polygon_invariants_on_zoo(self):
        for n in (3, 4, 5):
            ctx = ctx_for(n)
            for D in (supersingular_module(ctx, n), module_M(ctx, n)):
                P = newton_slopes(D)
                assert P.rank == D.rank
                assert P.slope_sum() == D.rank // 2
                assert P.is_symmetric()
                assert P.has_integral_breakpoints()
                assert P.in_unit_interval()


class TestPolarization:
    def test_zoo_empty(self):
        ctx = ctx_for(4)
        for D in (module_N(ctx), module_M(ctx, 2), module_M(ctx, 3),
                  supersingular_module(ctx, 4)):
            assert polarization_check(D) == []

    def test_hand_checked_pair_M2(self):
        # <F v2, v1> = <u1, v1> = -1 and sigma(<v2, V v1>) = sigma(-1) = -1
        ctx = ctx_for(2)
        D = module_M(ctx, 2)
        i, j = D.label_index(V(2)), D.label_index(V(1))
        lhs = sum((D.frobenius[k][i] * D.pairing[k][j]
                   for k in range(4)), ctx.zero())
        assert lhs == ctx.from_int(-1)
        ctx_v, vmat = D.verschiebung_matrix()
        rhs = sum((ctx_v.scalar(D.pairing[i][k].coords) * vmat[k][j]
                   for k in range(4)), ctx_v.zero())
        assert rhs.frobenius() == ctx_v.from_int(-1)

    def test_deformation_any_point_empty(self):
        ctx = ctx_for(3)
        for s2 in range(3):
            for s3 in range(3):
                D = deformation_display(
                    ctx, DeformationPoint.from_ints(ctx, 3, (s2, s3)))
                assert polarization_check(D) == []

    def test_exact_identity_on_matrices(self):
        # A^T J A = p sigma(J) holds at full precision on zoo displays
        for (n, p, d) in ((3, 3, 1), (4, 2, 1), (3, 2, 2)):
            ctx = ctx_for(n, p=p, d=d)
            D = supersingular_module(ctx, n)
            rank = D.rank
            A, J = D.frobenius, D.pairing
            for i in range(rank):
                for j in range(rank):
                    lhs = sum((A[k][i] * sum((J[k][l] * A[l][j]
                                              for l in range(rank)),
                                             ctx.zero())
                               for k in range(rank)), ctx.zero())
                    assert lhs == J[i][j].frobenius() * ctx.p

    def test_broken_sign_detected(self):
        # flipping the sign of F v0 breaks <Fx,y> = sigma(<x,Vy>)
        ctx = ctx_for(1)
        good = module_N(ctx)
        cols = [[good.frobenius[i][j] for i in range(2)] for j in range(2)]
        cols[1][0] = ctx.one()  # F v0 = +u0 instead of -u0
        bad = DieudonneDisplay(ctx, good.basis, cols, good.pairing)
        assert validate_display(bad).ok
        assert polarization_check(bad) != []


class TestANumberPRankSignature:
    def test_module_N(self):
        D = module_N(ctx_for(1))
        assert a_number(D) == 1
        assert p_rank(D) == 0
        assert signature(D) == (0, 1)

    def test_module_M2(self):
        D = module_M(ctx_for(2), 2)
        assert a_number(D) == 0
        assert p_rank(D) == 2
        assert signature(D) == (1, 1)

    def test_direct_sum_additivity(self):
        ctx = ctx_for(3)
        D1, D2 = module_M(ctx, 2), module_N(ctx)
        S = direct_sum(D1, D2)
        assert a_number(S) == a_number(D1) + a_number(D2)
        assert p_rank(S) == p_rank(D1) + p_rank(D2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_supersingular_signature(self, n):
        assert signature(supersingular_module(ctx_for(n), n)) == (1, n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_module_M_signature(self, n):
        assert signature(module_M(ctx_for(n), n)) == (1, n - 1)

    def test_p_rank_equals_slope_zero_multiplicity(self):
        ctx = ctx_for(4)
        for D in (module_M(ctx, 2), module_M(ctx, 4),
                  direct_sum(module_M(ctx, 2), module_N(ctx))):
            assert p_rank(D) == newton_slopes(D).multiplicity(0)

    def test_positive_a_number_without_slope_zero(self):
        # displays with no slope-0 part have a-number >= 1
        for n in (3, 4, 5):
            ctx = ctx_for(n)
            D = supersingular_module(ctx, n)
            assert p_rank(D) == 0 and a_number(D) >= 1

    def test_d2_invariants_match_d1(self):
        for n in (3, 4):
            D1 = supersingular_module(ctx_for(n, d=1), n)
            D2 = supersingular_module(ctx_for(n, d=2), n)
            assert a_number(D1) == a_number(D2)
            assert signature(D1) == signature(D2)


class TestVerschiebung:
    def test_fv_equals_p(self):
        ctx = ctx_for(3)
        D = module_M(ctx, 3)
        ctx_v, _ = D.verschiebung_matrix()
        basis_vec = tuple(ctx.one() if i == 2 else ctx.zero()
                          for i in range(6))
        vx = D.apply_verschiebung(basis_vec)
        lifted = tuple(ctx.scalar(x.coords) for x in vx)
        fvx = D.apply_frobenius(lifted)
        for i, e in enumerate(fvx):
            expected = ctx.p if i == 2 else 0
            assert (e - expected).valuation() >= ctx_v.N

    def test_hand_values_module_N(self):
        # V v0 = u0 and V u0 = -p v0
        D = module_N(ctx_for(1))
        ctx_v, vmat = D.verschiebung_matrix()
        assert vmat[0][1] == ctx_v.one()
        assert vmat[1][0] == ctx_v.from_int(-ctx_v.p)
        assert vmat[0][0].is_zero() and vmat[1][1].is_zero()


class TestDisplaySerialization:
    def test_round_trip(self):
        ctx = ctx_for(3)
        D = module_M(ctx, 3)
        blob = json.dumps(D.to_json())
        D2 = display_from_json(json.loads(blob))
        assert D2 == D

    def test_schema(self):
        D = module_N(ctx_for(1))
        obj = D.to_json()
        assert obj["basis"] == ["u0", "v0"]
        assert obj["grading"] == {"u": [0], "v": [1]}
        # column-major: column j lists the coordinates of F e_j
        p = D.ctx.p
        assert obj["frobenius"][0][1] == {"coords": [str(p)]}
        assert obj["frobenius"][1][0] == {
            "coords": [str(D.ctx.q - 1)]}

    @pytest.mark.parametrize("kind", ["columns", "column", "pairing",
                                      "rank"])
    def test_shape_checked_before_any_scalar(self, monkeypatch, kind):
        parsed = []
        original = fcrystal.scalar_from_json

        def spy(ctx, obj):
            parsed.append(obj)
            return original(ctx, obj)

        monkeypatch.setattr(fcrystal, "scalar_from_json", spy)
        obj = module_M(ctx_for(3), 3).to_json()
        message = "frobenius matrix shape mismatch"
        if kind == "columns":
            obj["frobenius"].pop()
        elif kind == "column":
            obj["frobenius"][2].pop()
        elif kind == "pairing":
            obj["pairing"].append(obj["pairing"][0])
            message = "pairing matrix shape mismatch"
        else:
            obj["basis"] = [f"u{i}" for i in range(2 * MAX_SPEC_HALF_RANK)]
            obj["basis"].append("v0")
            message = (f"display has more than {2 * MAX_SPEC_HALF_RANK} "
                       "basis labels")
        with pytest.raises(ValueError) as info:
            display_from_json(obj)
        assert str(info.value) == message
        assert parsed == []
        display_from_json(module_M(ctx_for(3), 3).to_json())
        assert len(parsed) == 2 * 6 * 6

    def test_deformation_round_trip(self):
        ctx = ctx_for(4)
        D = deformation_display(
            ctx, DeformationPoint.from_ints(ctx, 4, (1, 2, 0)))
        assert display_from_json(json.loads(json.dumps(D.to_json()))) == D


class TestLabels:
    def test_parse_and_str(self):
        assert str(BasisLabel("u", 3)) == "u3"
        assert BasisLabel.parse("v12") == BasisLabel("v", 12)
        with pytest.raises(ValueError):
            BasisLabel.parse("w1")

    def test_distinct_labels_enforced(self):
        ctx = ctx_for(1)
        zero = ctx.zero()
        with pytest.raises(ValueError, match="distinct"):
            DieudonneDisplay(ctx, (U(0), U(0)),
                             [[zero, zero], [zero, zero]],
                             [[zero, zero], [zero, zero]])


def count_calls(monkeypatch, name):
    """Replace _linalg.<name> by a wrapper counting its calls."""
    calls = []
    original = getattr(_linalg, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_linalg, name, counting)
    return calls


# the polygon of M(6) + N^2, which the deformation point SPEC below has too
M6_N2 = expected_M_polygon(6).union(NewtonPolygon([(Fraction(1, 2), 4)]))


class TestOncePerDisplay:
    SPEC = "def(8; s0=1, s2=2, s3=1, s5=2)"

    def test_certified_slopes_run_one_charpoly(self, monkeypatch):
        D = parse_module_spec(self.SPEC).build(ctx_for(8))
        whole = count_calls(monkeypatch, "charpoly")
        calls = count_calls(monkeypatch, "_berkowitz")
        polygon = newton_slopes(D)
        assert newton_slopes(D) is polygon
        # Berkowitz runs once per display on the diagonal blocks of the
        # n x n matrix of F^2 on the u-part, in the display's own context;
        # no whole charpoly is formed
        assert whole == []
        assert all(ops.ctx is D.ctx for ops, _ in calls)
        assert sum(len(srows) for _, srows in calls) == D.half_rank
        assert polygon == M6_N2

    def test_direct_sum_runs_one_row_blocks(self, monkeypatch):
        # N^64 reads its one distinct summand N: one Berkowitz run on one
        # row.  Its twin read from JSON has no parts and reads 64 blocks of
        # one row each.  No polynomial is multiplied either way.
        whole = count_calls(monkeypatch, "charpoly")
        products = count_calls(monkeypatch, "poly_mul")
        calls = count_calls(monkeypatch, "_berkowitz")
        assert cli.main(["slopes", "--module", "N^64"],
                        out=io.StringIO()) == 0
        assert whole == [] and products == []
        assert [len(srows) for _, srows in calls] == [1]
        del calls[:]
        D = parse_module_spec("N^64").build(ctx_for(64))
        newton_slopes(display_from_json(D.to_json()))
        assert whole == [] and products == []
        assert [len(srows) for _, srows in calls] == [1] * 64

    @pytest.mark.parametrize("text,d", [(SPEC, 1), ("M(6)+N^2", 2)])
    def test_certified_slopes_build_one_polygon(self, monkeypatch, text, d):
        spec = parse_module_spec(text)
        display = spec.build(ctx_for(spec.half_rank, d=d))
        built = []
        original = NewtonPolygon.__init__

        def counting(self, pairs):
            built.append(None)
            original(self, pairs)

        monkeypatch.setattr(NewtonPolygon, "__init__", counting)
        polygon = newton_slopes(display)
        assert len(built) == 1
        assert polygon == M6_N2

    # the ranks of the distinct summands each invariant reads: the display
    # itself, or each distinct part of a direct sum once
    RANKS = {SPEC: [16], "M(6)+N^2": [12, 2], "N^24": [2], "M(14)": [28],
             "M(6)+N^6": [12, 2]}

    @pytest.mark.parametrize("text,d", [(SPEC, 1), ("M(6)+N^2", 2)])
    def test_validation_runs_no_charpoly(self, monkeypatch, text, d):
        # val det J comes from an elimination on J's rows, one per
        # distinct summand
        spec = parse_module_spec(text)
        display = spec.build(ctx_for(spec.half_rank, d=d))
        calls = count_calls(monkeypatch, "charpoly")
        dets = count_calls(monkeypatch, "det_valuation")
        assert validate_display(display).ok
        assert calls == [] and [len(srows) for _, srows in dets] == \
            self.RANKS[text]

    # the modules of the module_invariants benchmark, with a def(8) point
    INVARIANT_MODULES = [("N^24", 3, 1), ("M(14)", 5, 2), (SPEC, 3, 1),
                         ("M(6)+N^6", 3, 2)]

    @pytest.mark.parametrize("text,p,d", INVARIANT_MODULES)
    def test_slopes_reads_no_adjugate(self, monkeypatch, text, p, d):
        # the a-number and the signature come from F mod p alone, and
        # check certifies the polarization from F alone
        # (A^T J A = p sigma(J) mod p^N): neither derives V
        calls = count_calls(monkeypatch, "adjugate_action")
        argv = ["--module", text, "--p", str(p), "--d", str(d)]
        assert cli.main(["slopes"] + argv, out=io.StringIO()) == 0
        assert calls == []
        assert cli.main(["check"] + argv, out=io.StringIO()) == 0
        assert calls == []

    @pytest.mark.parametrize("text,p,d", INVARIANT_MODULES)
    def test_invariants_share_one_elimination(self, monkeypatch, text, p, d):
        spec = parse_module_spec(text)
        display = spec.build(make_context(p, d, default_precision(
            spec.half_rank, d)))
        calls = count_calls(monkeypatch, "_eliminate")
        a_number(display)
        signature(display)
        a_number(display)
        assert [(ops.cap, ncols) for ops, _, ncols in calls
                if ops.cap != 1] == [(display.ctx.N, r)
                                     for r in self.RANKS[text]]

    @pytest.mark.parametrize("text,p,d", INVARIANT_MODULES)
    def test_check_and_invariants_eliminate_a_once(self, monkeypatch, text,
                                                   p, d):
        # validation, polarization, a-number and signature read one
        # elimination of A (pivot_steps) and one of J (det_valuation) per
        # distinct summand
        spec = parse_module_spec(text)
        display = spec.build(make_context(p, d, default_precision(
            spec.half_rank, d)))
        ranks = self.RANKS[text]
        calls = count_calls(monkeypatch, "_eliminate")
        pivots = count_calls(monkeypatch, "pivot_steps")
        dets = count_calls(monkeypatch, "det_valuation")
        assert validate_display(display).ok
        assert polarization_check(display) == []
        a_number(display)
        signature(display)
        assert sorted((ops.cap, ncols) for ops, _, ncols in calls
                      if ops.cap != 1) == sorted(
            [(display.ctx.N, r) for r in ranks] * 2)
        assert [len(cols) for _, cols in pivots] == ranks
        assert [len(srows) for _, srows in dets] == ranks

    @pytest.mark.parametrize("text,d", [(SPEC, 1), ("M(6)+N^2", 2)])
    def test_one_adjugate_for_all_v_consumers(self, monkeypatch, text, d):
        spec = parse_module_spec(text)
        display = spec.build(ctx_for(spec.half_rank, d=d))
        calls = count_calls(monkeypatch, "adjugate_action")
        assert validate_display(display).ok
        assert polarization_check(display) == []
        a_number(display)
        signature(display)
        # none of these derives V: the polarization is certified from F
        assert calls == []
        # V's own readers share one back substitution of the whole display
        ctx_v, rows = display.verschiebung_matrix()
        display.apply_verschiebung([ctx_v.one()] * display.rank)
        display.verschiebung_matrix()
        assert [len(cols) for _, cols, _ in calls] == [display.rank]
