"""A sweep reports its precision N and reads its polygons below it: at
d >= 3 its lanes run at the certifying precision N* = d n + 1, and at
d <= 2 they are read off residues (at N = 1) and certified at N, with no
context at N* and no lift.  The threshold N* is exact, the report is
byte-identical to one whose lanes run on the Berkowitz route at N, a
lane that fails at N* is read again at N, the lifts of a context derived
at N* are those at N reduced mod p^N*, and the residues a sweep at d <= 2
reads are those lifts reduced mod p."""

import contextlib
import io
import math

import pytest

from gustrata import strata
from gustrata._linalg import ops_for
from gustrata.cli import main
from gustrata.displayzoo import _lifts, _template_lanes
from gustrata.fcrystal import _graded_lane_pairs, _lane_polygons
from gustrata.strata import sweep, verify_local_strata
from gustrata.wittring import default_precision, make_context

# the sweeps of the threshold: (n, p, d, count, seed)
THRESHOLD_SWEEPS = [(8, 3, 1, 25, 5), (5, 3, 2, 12, 4), (6, 2, 3, 100, 8)]


def run(argv):
    """(exit code, stdout, stderr) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def lane_precisions(monkeypatch):
    """(precision, polygons) of every chunk of lanes read from now on."""
    calls = []
    original = strata._chunk_polygons

    def spy(ctx, n, rows):
        polygons = original(ctx, n, rows)
        calls.append((ctx.N, list(polygons)))
        return polygons

    monkeypatch.setattr(strata, "_chunk_polygons", spy)
    return calls


def at_n(monkeypatch):
    """Run every sweep from now on with its lanes at N on the Berkowitz
    route (the template's twisted product) at every d, as before N* and
    the residue route."""
    monkeypatch.setattr(strata, "_certifying_precision",
                        lambda n, d: math.inf)
    monkeypatch.setattr(strata, "_chunk_polygons", lambda ctx, n, rows: (
        _lane_polygons(_graded_lane_pairs(*_template_lanes(ctx, n, rows)),
                       ctx.N)))


def lane_precision(n, d, N):
    """The precision a sweep's lanes are read at: N* when d >= 3 and N
    exceeds it; N otherwise (at d <= 2 the lanes are certified at N)."""
    return d * n + 1 if d >= 3 and N > d * n + 1 else N


class TestThreshold:
    @pytest.mark.parametrize("n,p,d,count,seed", THRESHOLD_SWEEPS)
    def test_every_point_retries_below_and_none_at_nstar(
            self, n, p, d, count, seed, monkeypatch):
        calls = lane_precisions(monkeypatch)
        for N, retries in ((d * n, count), (d * n + 1, 0)):
            calls.clear()
            report = verify_local_strata(n, p, d, "random", count, seed,
                                         precision=N)
            assert report.points == count
            assert report.precision_retries == retries, N
            assert report.precision_failures == []
            # at or below N* the lanes run at N, as they always did
            assert {prec for prec, _ in calls} == {N}

    @pytest.mark.parametrize("n,p,d,count,seed", THRESHOLD_SWEEPS)
    def test_default_precision_certifies_every_lane(
            self, n, p, d, count, seed, monkeypatch):
        """Every lane is certified: at N* for d >= 3, at N for d <= 2,
        where no context at N* is made."""
        calls = lane_precisions(monkeypatch)
        mode_doc, ctx, records = sweep(n, p, d, "random", count, seed)
        report = strata.reduce_records(n, mode_doc, ctx, records)
        N = default_precision(n, d)
        assert report.precision_retries == 0
        assert report.mode["precision"] == report.context["N"] == N
        assert {prec for prec, _ in calls} == {lane_precision(n, d, N)}
        assert all(polygon is not None
                   for _, polygons in calls for polygon in polygons)
        assert (d * n + 1 in ctx._prec_cache) == (d >= 3)

    def test_records_keep_the_context_at_n(self):
        mode_doc, ctx, records = sweep(5, 3, 2, "random", 12, 4)
        assert {rec.ctx for rec in records} == {ctx}
        assert ctx.N == mode_doc["precision"] == default_precision(5, 2)


EXHAUSTIVE = [["verify", "--n", str(n), "--p", str(p)]
              for p in (2, 3) for n in range(3, 8)]
EXHAUSTIVE.append(["verify", "--n", "4", "--p", "3", "--d", "2"])
SAMPLES = [
    ["verify", "--n", "9", "--p", "3", "--random", "40", "--seed", "1"],
    ["verify", "--n", "12", "--p", "2", "--random", "70", "--seed", "2"],
    ["verify", "--n", "10", "--p", "5", "--random", "30", "--seed", "3"],
    ["verify", "--n", "6", "--p", "3", "--d", "2", "--random", "30",
     "--seed", "4"],
    ["verify", "--n", "7", "--p", "2", "--d", "3", "--random", "30",
     "--seed", "5"],
    ["verify", "--n", "4", "--p", "2", "--d", "4", "--random", "30",
     "--seed", "6"],
    ["verify", "--n", "5", "--p", "3", "--d", "2", "--random", "20",
     "--seed", "7", "--format", "tsv"],
    ["verify", "--n", "8", "--p", "3", "--random", "20", "--seed", "8",
     "--precision", "12"],
    ["verify", "--n", "20", "--p", "3", "--random", "16", "--seed", "9"],
    ["verify", "--n", "32", "--p", "3", "--d", "2", "--random", "4",
     "--seed", "2"],
]


class TestByteIdentity:
    """The report of a sweep whose lanes run at N* (d >= 3) or off
    residues (d <= 2) is the report of the same sweep with its lanes on
    the Berkowitz route at N, byte for byte."""

    @pytest.mark.parametrize("argv", EXHAUSTIVE + SAMPLES,
                             ids=" ".join)
    def test_same_bytes_as_at_n(self, argv, monkeypatch):
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, d = int(opts["--n"]), int(opts.get("--d", 1))
        N = int(opts.get("--precision", default_precision(n, d)))
        calls = lane_precisions(monkeypatch)
        on_demand = run(argv)
        assert {prec for prec, _ in calls} == {lane_precision(n, d, N)}
        at_n(monkeypatch)
        calls = lane_precisions(monkeypatch)
        assert run(argv) == on_demand
        assert {prec for prec, _ in calls} == {N}


class TestForcedFallback:
    """With N* taken as d n, every lane of a sweep at d >= 3 fails there
    and is read again at N: the report is the one of a sweep at N.  At
    d <= 2 no lane runs at N*, so the same seam changes nothing: every
    lane is read once, at N, and certified."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "4", "--p", "2", "--d", "3"],
        ["verify", "--n", "6", "--p", "2", "--d", "3", "--random", "100",
         "--seed", "8"],
        ["verify", "--n", "5", "--p", "2", "--d", "3", "--precision", "20",
         "--random", "40", "--seed", "9"],
        ["verify", "--n", "4", "--p", "2", "--d", "4", "--random", "30",
         "--seed", "6"],
    ], ids=" ".join)
    def test_every_lane_falls_back_to_n(self, argv, monkeypatch):
        with pytest.MonkeyPatch.context() as reference:
            at_n(reference)
            expected = run(argv)
        monkeypatch.setattr(strata, "_certifying_precision",
                            lambda n, d: d * n)
        calls = lane_precisions(monkeypatch)
        assert run(argv) == expected
        low, high = calls[0::2], calls[1::2]
        assert len({prec for prec, _ in low}) == 1
        assert all(polygon is None for _, polygons in low
                   for polygon in polygons)
        assert [len(p) for _, p in low] == [len(p) for _, p in high]
        assert all(prec > low[0][0] for prec, _ in high)

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "5", "--p", "3"],
        ["verify", "--n", "4", "--p", "3", "--d", "2"],
        ["verify", "--n", "8", "--p", "3", "--random", "25", "--seed", "5"],
        ["verify", "--n", "7", "--p", "2", "--precision", "13", "--random",
         "60", "--seed", "9"],
    ], ids=" ".join)
    def test_residue_lanes_read_once_at_n(self, argv, monkeypatch):
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, d = int(opts["--n"]), int(opts.get("--d", 1))
        N = int(opts.get("--precision", default_precision(n, d)))
        with pytest.MonkeyPatch.context() as reference:
            at_n(reference)
            expected = run(argv)
        monkeypatch.setattr(strata, "_certifying_precision",
                            lambda n, d: d * n)
        calls = lane_precisions(monkeypatch)
        assert run(argv) == expected
        assert {prec for prec, _ in calls} == {N}
        assert all(polygon is not None for _, polygons in calls
                   for polygon in polygons)


class TestLiftReduction:
    """A lift mod p^N* is unique, so the lift in a context derived at N*
    is the reduction of the lift at N; a sweep at d <= 2 runs no lift,
    and the residues it reads are the lifts at N reduced mod p."""

    @pytest.mark.parametrize("n,p,d,count,seed", [
        (6, 2, 3, 100, 8), (4, 3, 6, 20, 5), (5, 2, 3, 30, 2)])
    def test_sweep_lifts_are_reductions(self, n, p, d, count, seed):
        _, ctx, records = sweep(n, p, d, "random", count, seed)
        for _ in records:
            pass
        low = ctx.at_precision(d * n + 1)
        assert low.N < ctx.N and low._teich_cache
        for y, lift in low._teich_cache.items():
            top = ctx.teichmuller(ctx.field_from_int(
                sum(c * p ** i for i, c in enumerate(y))))
            assert lift.coords == tuple(c % low.q for c in top.coords), y

    @pytest.mark.parametrize("n,p,d,count,seed", [
        (8, 3, 1, 25, 5), (5, 3, 2, 12, 4), (5, 1000003, 2, 10, 1),
        (6, 5, 1, 30, 6)])
    def test_residue_sweeps_read_reduced_lifts(self, n, p, d, count, seed):
        _, ctx, records = sweep(n, p, d, "random", count, seed)
        codes = set()
        for rec in records:
            codes.update(rec.ints)
        assert not ctx._teich_cache and d * n + 1 not in ctx._prec_cache
        residue = ctx.at_precision(1)
        assert not residue._teich_cache
        ops, top = ops_for(residue), ops_for(ctx)
        read = _lifts(residue, ops, [tuple(codes)])
        assert not residue._teich_cache
        for k in codes:
            lift = ctx.teichmuller(ctx.field_from_int(k))
            assert read[k] == ops.truncate(top.unwrap(lift)), k
    @pytest.mark.parametrize("p,d,N,low", [(3, 2, 48, 11), (2, 3, 104, 13),
                                           (5, 2, 40, 9), (3, 6, 104, 25)])
    def test_every_residue(self, p, d, N, low):
        ctx = make_context(p, d, N)
        derived = ctx.at_precision(low)
        for k in range(min(p ** d, 200)):
            a = ctx.field_from_int(k)
            assert derived.teichmuller(a).coords == tuple(
                c % derived.q for c in ctx.teichmuller(a).coords), k
