import itertools
import json
import pathlib
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from gustrata import (BudgetError, CapacityError, DeformationPoint,
                      NewtonPolygon, catalog,
                      classify, default_precision, deformation_display,
                      lambda_min, make_context,
                      newton_slopes, predicted_stratum, strata,
                      verify_local_strata)
from gustrata.fcrystal import U
from gustrata.slopegraph import build_graph, karp_min_cycle_mean

from _oracles import extra_edge_effects_oracle
from _sweeps import report_and_records

CALIBRATION = pathlib.Path(__file__).resolve().parent.parent / \
    "calibration" / "even_stratum_rule.json"


class TestLambdaMin:
    @pytest.mark.parametrize("n,j,expect", [
        (5, 1, Fraction(1, 4)), (5, 2, Fraction(0)),
        (8, 2, Fraction(1, 3)), (3, 1, Fraction(0)),
        (10, 1, Fraction(2, 5)),
    ])
    def test_values(self, n, j, expect):
        assert lambda_min(n, j) == expect

    def test_zero_iff_top_j(self):
        for n in range(3, 11):
            for j in range(1, n // 2 + 1):
                assert (lambda_min(n, j) == 0) == (j == n // 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_min(5, 3)
        with pytest.raises(ValueError):
            lambda_min(5, 0)


class TestCatalog:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_count_and_order(self, n):
        cat = catalog(n)
        assert len(cat) == 1 + n // 2
        assert cat[0].label == "sigma"
        assert [e.label for e in cat[1:]] == \
            [f"xi_{2 * j}" for j in range(1, n // 2 + 1)]
        # strictly decreasing minimal slope after sigma, total order
        lams = [e.lambda_min for e in cat]
        assert all(a > b for a, b in zip(lams[1:], lams[2:]))
        assert len(set(lams)) == len(lams)

    def test_n3(self):
        cat = catalog(3)
        assert [(e.label, e.lambda_min) for e in cat] == \
            [("sigma", Fraction(1, 2)), ("xi_2", Fraction(0))]

    def test_n5_lambda_values(self):
        assert [e.lambda_min for e in catalog(5)] == \
            [Fraction(1, 2), Fraction(1, 4), Fraction(0)]

    def test_n4_polygons(self):
        cat = {e.label: e for e in catalog(4)}
        assert cat["xi_2"].polygon == NewtonPolygon(
            [(Fraction(1, 4), 4), (Fraction(3, 4), 4)])
        assert cat["xi_4"].polygon == NewtonPolygon(
            [(Fraction(0), 2), (Fraction(1, 2), 4), (Fraction(1), 2)])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_polygon_invariants(self, n):
        for e in catalog(n):
            P = e.polygon
            assert P.rank == 2 * n
            assert P.slope_sum() == n
            assert P.is_symmetric()
            assert P.has_integral_breakpoints()
            assert P.in_unit_interval()
            assert P.min_slope() == e.lambda_min

    @pytest.mark.parametrize("n", range(3, 11))
    def test_codim_and_decomposition(self, n):
        for e in catalog(n):
            if e.j is not None:
                assert e.codim == n // 2 - e.j
                m, r = e.decomposition
                assert m == 2 * (n // 2 + 1 - e.j) and r == n - m

    def test_descriptor_json(self):
        e = catalog(5)[1]
        obj = e.to_json()
        assert obj["label"] == "xi_2" and obj["lambda_min"] == "1/4"
        assert obj["decomposition"] == {"m": 4, "r": 1}

    def test_fresh_list_each_call(self):
        first = catalog(6)
        first.clear()
        assert len(catalog(6)) == 4
        assert catalog(6) is not catalog(6)


class TestClassify:
    def test_sigma(self):
        P = NewtonPolygon([(Fraction(1, 2), 10)])
        assert classify(5, P) == "sigma"

    def test_xi2_n5(self):
        P = NewtonPolygon([(Fraction(1, 4), 4), (Fraction(1, 2), 2),
                           (Fraction(3, 4), 4)])
        assert classify(5, P) == "xi_2"

    def test_inadmissible(self):
        P = NewtonPolygon([(Fraction(1, 3), 3), (Fraction(2, 3), 3)])
        assert classify(3, P) == "inadmissible"

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            classify(4, NewtonPolygon([(Fraction(1, 2), 6)]))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_round_trip_on_catalog(self, n):
        for e in catalog(n):
            assert classify(n, e.polygon) == e.label


class TestLookupAgainstComparison:
    """classify looks the polygon up by its integer slopes and
    predicted_stratum reads the parameters by position; both agree with
    the comparison with each catalog polygon and the index dict on every
    exhaustive record."""

    @staticmethod
    def _compared(n, polygon):
        return next((e.label for e in catalog(n) if e.polygon == polygon),
                    "inadmissible")

    @staticmethod
    def _predicted_by_index(point):
        n, values = point.n, point.as_dict()
        if n % 2:
            nonzero = [i for i in range(2, n, 2) if values[i]]
            return f"xi_{max(nonzero)}" if nonzero else "sigma"
        contributed = [1] if values[0] else []
        contributed += [i // 2 + 1 for i in range(2, n - 1, 2) if values[i]]
        return f"xi_{2 * max(contributed)}" if contributed else "sigma"

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_every_exhaustive_record(self, n):
        _, records = report_and_records(n, 3, 1)
        assert len(records) == 3 ** (n - 1)
        for rec in records:
            assert classify(n, rec.polygon) == \
                self._compared(n, rec.polygon)
            assert predicted_stratum(rec.point) == \
                self._predicted_by_index(rec.point)

    def test_near_misses_are_inadmissible(self):
        # the slopes of xi_2 at n = 5 with other multiplicities, and the
        # multiplicities with one slope moved
        for parts in ([(Fraction(1, 4), 8), (Fraction(3, 4), 2)],
                      [(Fraction(1, 4), 4), (Fraction(1, 2), 2),
                       (Fraction(4, 5), 4)]):
            polygon = NewtonPolygon(parts)
            assert classify(5, polygon) == self._compared(5, polygon) == \
                "inadmissible"


class TestPredictedStratum:
    def _pt(self, ctx, n, assignments):
        indices = ((0,) + tuple(range(2, n))) if n % 2 == 0 \
            else tuple(range(2, n + 1))
        ints = tuple(assignments.get(i, 0) for i in indices)
        return DeformationPoint.from_ints(ctx, n, ints)

    def test_odd_examples(self):
        ctx = make_context(2, 1, 8)
        # s2 nonzero, s4 zero: xi_2 regardless of odd coordinates
        assert predicted_stratum(
            self._pt(ctx, 5, {2: 1, 3: 1, 5: 1})) == "xi_2"
        # s4 nonzero dominates
        assert predicted_stratum(self._pt(ctx, 5, {4: 1})) == "xi_4"
        assert predicted_stratum(
            self._pt(ctx, 5, {2: 1, 4: 1})) == "xi_4"
        # odd coordinates never matter
        assert predicted_stratum(self._pt(ctx, 3, {3: 1})) == "sigma"

    def test_even_examples(self):
        ctx = make_context(2, 1, 8)
        assert predicted_stratum(self._pt(ctx, 4, {})) == "sigma"
        assert predicted_stratum(self._pt(ctx, 4, {0: 1})) == "xi_2"
        assert predicted_stratum(self._pt(ctx, 4, {2: 1})) == "xi_4"
        assert predicted_stratum(self._pt(ctx, 6, {2: 1})) == "xi_4"
        assert predicted_stratum(self._pt(ctx, 6, {4: 1})) == "xi_6"
        assert predicted_stratum(
            self._pt(ctx, 6, {0: 1, 2: 1})) == "xi_4"


class TestCalibrationTable:
    def test_shipped_table_matches_recomputation(self):
        doc = json.loads(CALIBRATION.read_text())
        assert doc["cases"], "calibration table must not be empty"
        for case in doc["cases"]:
            n, p = case["n"], case["p"]
            ctx = make_context(p, 1, default_precision(n, 1))
            seen = {}
            for ints in itertools.product(range(p), repeat=n - 1):
                pt = DeformationPoint.from_ints(ctx, n, ints)
                label = classify(
                    n, newton_slopes(deformation_display(ctx, pt)))
                pattern = "".join("1" if v else "0" for v in ints)
                assert case["patterns"][pattern] == label, (n, p, ints)
                assert predicted_stratum(pt) == label, (n, p, ints)
                seen[pattern] = label
            assert seen == case["patterns"]


class TestVerifyLocalStrata:
    def test_n3_p3_exhaustive(self):
        rep = verify_local_strata(3, 3, 1)
        assert rep.points == 9
        assert rep.agreement_rate == 1
        assert rep.counts_by_stratum == {"sigma": 3, "xi_2": 6}
        assert rep.lemma_violations == []
        assert rep.remark_violations == []
        assert rep.precision_failures == []

    def test_n5_p2_counts(self):
        rep = verify_local_strata(5, 2, 1)
        assert rep.points == 16
        assert rep.counts_by_stratum == {"sigma": 4, "xi_2": 4, "xi_4": 8}
        assert rep.agreement_rate == 1

    def test_n4_p2_agreement(self):
        rep = verify_local_strata(4, 2, 1)
        assert rep.points == 8
        assert rep.agreement_rate == 1
        assert rep.s0_effect is not None
        assert rep.s0_effect["changes_stratum"] is True

    def test_d2_exhaustive(self):
        rep = verify_local_strata(3, 2, 2)
        assert rep.points == 16
        assert rep.agreement_rate == 1
        assert rep.lemma_violations == []

    def test_random_mode_deterministic(self):
        a = verify_local_strata(5, 3, 1, mode="random", count=20, seed=11)
        b = verify_local_strata(5, 3, 1, mode="random", count=20, seed=11)
        assert a.to_json() == b.to_json()
        c = verify_local_strata(5, 3, 1, mode="random", count=20, seed=12)
        assert c.to_json() != a.to_json()

    def test_random_mode_needs_seed_and_count(self):
        with pytest.raises(ValueError):
            verify_local_strata(3, 3, 1, mode="random")

    def test_budget(self):
        with pytest.raises(BudgetError):
            verify_local_strata(5, 3, 1, budget=10)
        with pytest.raises(BudgetError):
            verify_local_strata(5, 3, 1, mode="random", count=100, seed=1,
                                budget=10)

    @pytest.mark.parametrize("kwargs,message", [
        ({}, "exhaustive sweep needs 9765625 points, budget is 100 "
             "(override with GUSTRATA_POINT_BUDGET or --budget)"),
        ({"mode": "random", "count": 101, "seed": 0},
         "random sweep of 101 points exceeds budget 100"),
    ])
    def test_budget_checked_before_any_work(self, kwargs, message,
                                            monkeypatch):
        calls = []
        for name in ("make_context", "_template_graph"):
            monkeypatch.setattr(strata, name,
                                lambda *args, name=name: calls.append(name))
        with pytest.raises(BudgetError) as info:
            verify_local_strata(6, 5, 2, budget=100, **kwargs)
        assert str(info.value) == message
        assert calls == []

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("GUSTRATA_POINT_BUDGET", "4")
        with pytest.raises(BudgetError):
            verify_local_strata(3, 3, 1)
        monkeypatch.setenv("GUSTRATA_POINT_BUDGET", "16")
        assert verify_local_strata(3, 3, 1).points == 9

    def test_report_json_shape(self):
        rep = verify_local_strata(3, 2, 1)
        doc = json.loads(rep.to_json())
        for key in ("n", "p", "d", "mode", "points", "agreement",
                    "counts_by_stratum", "lemma_violations",
                    "remark_violations", "context", "version"):
            assert key in doc
        assert doc["context"]["p"] == 2

    def test_tsv_summary(self):
        rep = verify_local_strata(3, 2, 1)
        tsv = rep.to_tsv()
        assert "# agreement_rate\t1/1" in tsv
        assert "sigma\t" in tsv

    def test_agreement_matrix_diagonal(self):
        rep = verify_local_strata(4, 3, 1)
        for predicted, row in rep.agreement.items():
            assert list(row) == [predicted]

    def test_records_cover_every_point(self):
        rep, records = report_and_records(3, 2, 1)
        assert len(records) == rep.points
        assert records[0].polygon.rank == records[0].display.rank

    @pytest.mark.parametrize("n", [5, 6])
    def test_extra_edge_effects(self, n):
        # Deleting edges only removes cycles, so the minimum cycle slope
        # without the extra black edges is never below the full one; an
        # entry is recorded only when the two differ.
        rep, records = report_and_records(n, 3, 1)
        swept = {}
        for rec in records:
            doc = dict(zip((f"s{i}" for i in rec.point.indices),
                           rec.point.to_ints()))
            swept[tuple(sorted(doc.items()))] = rec.min_cycle
        assert len(swept) == rep.points == 3 ** (n - 1)
        for entry in rep.extra_edge_effects:
            key = tuple(sorted(entry["point"].items()))
            assert key in swept
            full = Fraction(entry["full"])
            assert full == swept[key]
            assert full < Fraction(entry["without_extra_black_edges"])
        # entries occur only at even n here, so n = 6 keeps the loop above
        # from being vacuous
        assert bool(rep.extra_edge_effects) == (n % 2 == 0)

    @pytest.mark.parametrize("n,p,entries", [(6, 3, 18), (4, 5, 20),
                                             (8, 2, 8)])
    def test_extra_edge_effects_against_two_enumerations(self, n, p,
                                                         entries):
        # one enumeration with kept marks gives the list that two
        # separate enumerations (label-keyed filter, networkx) give
        rep = verify_local_strata(n, p, 1)
        assert rep.extra_edge_effects == extra_edge_effects_oracle(n, p, 1)
        assert len(rep.extra_edge_effects) == entries

    def test_precision_failure_retries_at_doubled_precision(self):
        # at N = 3 the rank-6 determinant valuation hits the cap, so every
        # point is retried once at 2N and then succeeds
        rep = verify_local_strata(3, 2, 1, precision=3)
        assert rep.precision_retries == rep.points == 4
        assert rep.precision_failures == []
        assert rep.agreement_rate == 1

    def test_mode_embeds_resolved_config(self):
        rep = verify_local_strata(3, 2, 1, budget=500)
        assert rep.mode == {"kind": "exhaustive", "budget": 500,
                            "precision": 20}


class TestKarpFallback:
    """The sweep settles its template once.  Where that settle holds, Karp
    never runs; where it fails, Karp runs on every point's own graph and
    records exactly where its least mean differs from the least slope
    through u_1."""

    @staticmethod
    def _count_karp(monkeypatch):
        calls = []

        def spy(graph):
            calls.append(graph)
            return karp_min_cycle_mean(graph)

        monkeypatch.setattr(strata, "karp_min_cycle_mean", spy)
        return calls

    @pytest.mark.parametrize("n,p,d,kwargs", [
        (5, 3, 1, {}), (3, 2, 2, {}),
        (8, 3, 1, {"mode": "random", "count": 40, "seed": 5}),
    ])
    def test_not_called_when_the_certificate_holds(self, n, p, d, kwargs,
                                                   monkeypatch):
        calls = self._count_karp(monkeypatch)
        rep = verify_local_strata(n, p, d, **kwargs)
        assert rep.points > 0
        assert rep.karp_disagreements == []
        assert calls == []

    @staticmethod
    def _loop_template(monkeypatch, tag):
        """Give the sweep's template graph a weight-0 self-loop on its last
        vertex, with the given tag: a cycle of mean 0 that avoids u_1, in
        the graph of every point whose zero parameters miss the tag."""
        template_graph = strata._template_graph

        def looped(ctx, n):
            labels, succ, tags = template_graph(ctx, n)
            last = len(labels) - 1
            assert labels[last] != U(1)
            succ[last].append((last, 0))
            tags[last].append(tag)
            return labels, succ, tags

        monkeypatch.setattr(strata, "_template_graph", looped)

    @staticmethod
    def _karp_entries(records, has_loop):
        """What unconditional Karp records on each point's own graph, with
        the loop where has_loop(record) holds."""
        expected = []
        for rec in records:
            graph = build_graph(rec.display)
            if has_loop(rec):
                last = len(graph.vertices) - 1
                graph._succ[last].append((last, 0))
            karp = karp_min_cycle_mean(graph)
            if karp != rec.min_cycle:
                expected.append({
                    "point": {f"s{i}": v for i, v in
                              zip(rec.point.indices, rec.point.to_ints())},
                    "min_cycle_u1": strata._frac_str(rec.min_cycle),
                    "karp_global": strata._frac_str(karp),
                })
        return expected

    def test_lighter_cycle_off_u1_is_recorded_by_karp(self, monkeypatch):
        # the loop is in every point's graph, so the global minimum drops
        # to 0 while the least slope through u_1 stays as it was
        n, p = 5, 2
        plain, records = report_and_records(n, p, 1)
        self._loop_template(monkeypatch, 0)
        calls = self._count_karp(monkeypatch)
        rep = verify_local_strata(n, p, 1)
        expected = self._karp_entries(records, lambda rec: True)
        assert rep.karp_disagreements == expected
        # the loop unsettles the template, so Karp runs at every point, and
        # every point off the slope-0 stratum disagrees, with Karp's value
        positive = [rec for rec in records if rec.min_cycle != 0]
        assert len(calls) == rep.points
        assert len(expected) == len(positive) > 0
        assert all(e["karp_global"] == "0/1" for e in expected)
        # the rest of the report does not see the loop
        for key in ("agreement", "counts_by_stratum", "lemma_violations",
                    "remark_violations", "extra_edge_effects"):
            assert getattr(rep, key) == getattr(plain, key)

    def test_loop_of_one_parameter_reaches_karp_where_it_is_nonzero(
            self, monkeypatch):
        # the loop carries the bit of parameter position 0 (s_2); it is in
        # the template, so Karp runs at every point.  Where s_2 = 0 the
        # point's graph has no loop and Karp agrees with the least slope
        # through u_1; elsewhere Karp records the loop's mean
        n, p, k = 5, 2, 0
        plain, records = report_and_records(n, p, 1)
        self._loop_template(monkeypatch, 2 << k)
        calls = self._count_karp(monkeypatch)
        rep = verify_local_strata(n, p, 1)
        expected = self._karp_entries(records, lambda rec: rec.ints[k])
        assert rep.karp_disagreements == expected
        positive = [rec for rec in records if rec.min_cycle != 0]
        looped = [rec for rec in positive if rec.ints[k]]
        assert len(calls) == rep.points
        assert len(expected) == len(looped) > 0
        assert len(positive) > len(looped)
        assert all(e["karp_global"] == "0/1" for e in expected)
        for key in ("agreement", "counts_by_stratum", "lemma_violations",
                    "remark_violations", "extra_edge_effects"):
            assert getattr(rep, key) == getattr(plain, key)


# sweeps whose reports have entries: extra-edge effects (n = 6, p = 3 and
# n = 4, p = 5), every point retried (precision 3), every point failed
# (precision 2), and d = 2
STREAM_CASES = [
    (6, 3, 1, {}), (4, 5, 1, {}), (3, 2, 1, {"precision": 3}),
    (5, 3, 1, {"mode": "random", "count": 20, "seed": 0, "precision": 2}),
    (3, 2, 2, {}),
]


class _Marker:
    """A weakly referenceable stand-in for a record's context."""


class TestSweepStream:
    """sweep checks its arguments and returns a lazy stream of per-point
    records; reduce_records makes the report from the stream alone."""

    @pytest.mark.parametrize("n,p,d,kwargs", STREAM_CASES)
    def test_report_is_the_reduced_records(self, n, p, d, kwargs):
        rep, records = report_and_records(n, p, d, **kwargs)
        direct = verify_local_strata(n, p, d, **kwargs)
        assert rep == direct
        assert rep.to_json() == direct.to_json()
        assert rep.to_tsv() == direct.to_tsv()
        assert rep.points == len(records)

    @pytest.mark.parametrize("n,p,d,kwargs", STREAM_CASES)
    def test_report_lists_are_the_records_entries(self, n, p, d, kwargs):
        rep, records = report_and_records(n, p, d, **kwargs)
        names = strata._REPORT_LISTS
        assert {key for rec in records for key, _ in rec.entries} <= \
            set(names)
        for name in names:
            assert getattr(rep, name) == [
                entry for rec in records for key, entry in rec.entries
                if key == name], name
        nprec = rep.mode["precision"]
        assert rep.precision_retries == sum(rec.retried for rec in records)
        for rec in records:
            assert rec.point.to_ints() == rec.ints
            assert rec.display.ctx.N == (2 if rec.retried else 1) * nprec
            failed = [e for key, e in rec.entries
                      if key == "precision_failures"]
            assert (rec.polygon is None) == bool(failed) == \
                (rec.min_cycle is None)
            if failed:
                assert rec.retried and len(rec.entries) == 1

    def test_counts_and_rate_come_from_the_agreement_matrix(self):
        # real records with their polygons shifted by one point, so that
        # prediction and classification disagree, and every fifth point
        # failed
        n = 4
        rep, records = report_and_records(n, 3, 1)
        shifted = [
            rec._replace(polygon=None, entries=(("precision_failures", {}),))
            if k % 5 == 0 else
            rec._replace(polygon=records[k - 1].polygon)
            for k, rec in enumerate(records)]
        mode_doc, ctx, _ = strata.sweep(n, 3, 1)
        got = strata.reduce_records(n, mode_doc, ctx, shifted)
        pairs = [(predicted_stratum(rec.point), classify(n, rec.polygon))
                 for rec in shifted if rec.polygon is not None]
        assert got.points == len(records) == 27
        assert len(got.precision_failures) == 6
        assert got.counts_by_stratum == dict(sorted(
            Counter(label for _, label in pairs).items()))
        assert got.agreement == {
            pred: dict(sorted(Counter(
                label for p_, label in pairs if p_ == pred).items()))
            for pred in sorted({p_ for p_, _ in pairs})}
        matches = sum(pred == label for pred, label in pairs)
        assert got.agreement_rate == Fraction(matches, len(pairs))
        assert 0 < matches < len(pairs)

    def test_reducer_reads_a_one_shot_stream_and_holds_no_record(self):
        n, p = 4, 3
        mode_doc, ctx, stream = strata.sweep(n, p, 1)
        records = list(stream)
        assert list(stream) == []
        rep = strata.reduce_records(n, mode_doc, ctx, records)
        refs = []

        def one_shot():
            for rec in records:
                # the reducer may still hold the record before this one,
                # and no earlier record
                assert all(ref() is None for ref in refs[:-1])
                marked = rec._replace(ctx=_Marker())
                refs.append(weakref.ref(marked.ctx))
                yield marked

        assert strata.reduce_records(n, mode_doc, ctx, one_shot()) == rep
        assert len(refs) == len(records) == 27

    @pytest.mark.parametrize("args,kwargs,error", [
        ((2, 3, 1), {}, ValueError),
        ((strata.MAX_VERIFY_N + 1, 3, 1), {}, ValueError),
        ((3, 4, 1), {}, ValueError),
        ((3, 3, 0), {}, ValueError),
        ((3, 3, 1), {"precision": 0}, ValueError),
        # fits at N = 2^20, not at 2N
        ((3, 3, 1), {"precision": 1 << 20}, CapacityError),
        ((3, 3, 1), {"mode": "random"}, ValueError),
        ((3, 3, 1), {"mode": "random", "count": 0, "seed": 1}, ValueError),
        ((3, 3, 1), {"mode": "stratified"}, ValueError),
        ((5, 3, 1), {"budget": 10}, BudgetError),
        ((5, 3, 1), {"mode": "random", "count": 11, "seed": 1,
                     "budget": 10}, BudgetError),
    ])
    def test_bad_argument_raises_at_the_call(self, args, kwargs, error,
                                             monkeypatch):
        calls = []
        for name in ("make_context", "deformation_display",
                     "_template_graph"):
            monkeypatch.setattr(strata, name,
                                lambda *a, name=name: calls.append(name))
        with pytest.raises(error):
            strata.sweep(*args, **kwargs)
        assert calls == []


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 1000003, 1000003 ** 2,
                               3 ** 40])
def test_random_points_are_the_randrange_stream(q):
    # a random sweep's draws are Random(seed).randrange(q), point-major,
    # whatever the share of k-bit draws that lie at or above q
    for seed in (0, 1, 2, 7, 3301):
        for n in (3, 8, 17):
            rng = random.Random(seed)
            want = [tuple(rng.randrange(q) for _ in range(n - 1))
                    for _ in range(40)]
            assert list(strata._enumerate_points(
                n, q, "random", 40, seed)) == want, (seed, n)
