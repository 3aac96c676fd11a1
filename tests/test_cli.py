import io
import json

import pytest

from gustrata import (RingContext, __version__, _linalg, cli, displayzoo,
                      strata)
from gustrata.cli import main


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestCatalog:
    def test_n5(self):
        code, out = run(["catalog", "--n", "5"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["strata"]) == 3
        assert [e["lambda_min"] for e in doc["strata"]] == \
            ["1/2", "1/4", "0/1"]
        assert doc["version"] == __version__
        assert set(doc["context"]) == {"p", "d", "N", "modulus"}

    def test_tsv(self):
        code, out = run(["catalog", "--n", "4", "--format", "tsv"])
        assert code == 0
        assert "sigma" in out and "xi_4" in out
        assert out.startswith("# n\t4")

    def test_bad_n(self):
        code, _ = run(["catalog", "--n", "2"])
        assert code == 2


class TestSlopes:
    def test_m4_p3(self):
        code, out = run(["slopes", "--module", "M(4)", "--p", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["polygon"]["slopes"] == [
            {"num": 1, "den": 4, "mult": 4},
            {"num": 3, "den": 4, "mult": 4}]
        assert doc["signature"] == [1, 3]

    def test_sum_spec(self):
        code, out = run(["slopes", "--module", "M(2)+N", "--p", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["module"] == "M(2) + N"
        assert doc["p_rank"] == 2

    def test_deformation_spec(self):
        code, out = run(["slopes", "--module", "def(3; s2=1)", "--p", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["polygon"]["slopes"][0] == {"num": 0, "den": 1, "mult": 2}

    def test_unknown_module(self):
        code, _ = run(["slopes", "--module", "Q(3)"])
        assert code == 2

    def test_bad_parameter_assignment(self):
        code, _ = run(["slopes", "--module", "def(3; s9=1)"])
        assert code == 2

    def test_tsv(self):
        code, out = run(["slopes", "--module", "N", "--format", "tsv"])
        assert code == 0
        assert "1/2\t2" in out

    def test_large_prime_quartic_field(self):
        # no x^4 + c is irreducible mod 1000003, and the modulus search
        # skips them instead of testing a million binomials
        code, out = run(["slopes", "--module", "N", "--p", "1000003",
                         "--d", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["context"]["modulus"] == [1, 1, 0, 0, 1]
        assert doc["polygon"] == {"slopes": [{"num": 1, "den": 2,
                                              "mult": 2}]}


class TestGraph:
    def test_dot(self):
        code, out = run(["graph", "--module", "M(7)", "--dot"])
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 14

    def test_json_with_cycles(self):
        code, out = run(["graph", "--module", "M(3)"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["edges"]) == 6
        assert doc["cycles_through_u1"] == [
            {"vertices": ["u1", "v3", "u2", "v1", "u3", "v2"],
             "length": 6, "weight": 3}]

    def test_long_cycle(self):
        # the u1 cycle of M(1100) passes through 1100 vertices
        code, out = run(["graph", "--module", "M(1100)", "--p", "3"])
        assert code == 0
        cycles = json.loads(out)["cycles_through_u1"]
        assert [c["length"] for c in cycles] == [1100]

    def test_deformation_edge(self):
        code, out = run(["graph", "--module", "def(3; s2=1)", "--dot"])
        assert code == 0
        assert '"v3" -> "u1" [color=gray];' in out


class TestCheck:
    def test_valid_module(self):
        code, out = run(["check", "--module", "ss(4)", "--p", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["polarization_violations"] == []
        names = [c["name"] for c in doc["validation"]["checks"]]
        assert "pairing_alternating" in names

    def test_deformation_points_pass(self):
        for spec in ("def(5; s2=1, s5=1)", "def(4; s0=1, s3=1)",
                     "def(6; s0=1, s2=1, s5=1)"):
            code, out = run(["check", "--module", spec, "--p", "3"])
            assert code == 0, out
            assert json.loads(out)["ok"] is True


class TestVerify:
    def test_exhaustive_n3(self):
        code, out = run(["verify", "--n", "3", "--p", "3", "--d", "1",
                         "--exhaustive"])
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == 9
        assert doc["agreement_rate"] == "1/1"

    def test_random_mode(self):
        code, out = run(["verify", "--n", "4", "--p", "3", "--d", "1",
                         "--random", "10", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"]["kind"] == "random"
        assert doc["mode"]["count"] == 10 and doc["mode"]["seed"] == 7
        assert doc["mode"]["precision"] == 24

    def test_budget_exceeded_is_usage_error(self):
        code, _ = run(["verify", "--n", "6", "--p", "5", "--d", "2",
                       "--exhaustive", "--budget", "100"])
        assert code == 2

    def test_huge_exhaustive_total_is_named_as_a_power(self, monkeypatch,
                                                       capsys):
        # 3^19000 has more digits than int-to-str converts, and a context
        # of degree 1000 would take minutes to find its modulus
        def refuse(*args):
            raise AssertionError("context built before the budget check")

        monkeypatch.setattr(strata, "make_context", refuse)
        code, out = run(["verify", "--n", "20", "--p", "3", "--d", "1000",
                         "--precision", "1", "--exhaustive"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: exhaustive sweep needs 3^19000 points, budget is 100000 "
            "(override with GUSTRATA_POINT_BUDGET or --budget)\n")

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--random", "0"],
        ["--n", "4", "--random", "-3"],
    ])
    def test_random_count_below_one_exits_2(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("context built before the count was refused")

        monkeypatch.setattr(strata, "make_context", refuse)
        code, out = run(["verify", "--p", "3"] + argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "count >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["--n", "257", "--random", "1"],
        ["--n", "800", "--random", "1", "--seed", "4"],
        ["--n", "100000", "--exhaustive"],
        ["--n", "400", "--d", "2", "--random", "64"],
    ])
    def test_n_above_the_cap_exits_2(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("context built before n was refused")

        monkeypatch.setattr(strata, "make_context", refuse)
        code, out = run(["verify", "--p", "3"] + argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: need 3 <= n <= {strata.MAX_VERIFY_N}, got {argv[1]}\n")

    def test_n_at_the_cap_passes_the_guards(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("context built")

        monkeypatch.setattr(strata, "make_context", refuse)
        with pytest.raises(AssertionError, match="context built"):
            run(["verify", "--p", "3", "--n", str(strata.MAX_VERIFY_N),
                 "--random", "1"])

    def test_non_integer_budget_variable_is_named(self, monkeypatch, capsys):
        monkeypatch.setenv("GUSTRATA_POINT_BUDGET", "abc")
        code, out = run(["verify", "--n", "3", "--p", "2", "--d", "1"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == ("error: GUSTRATA_POINT_BUDGET must be an integer, "
                       "got 'abc'\n")

    def test_tsv(self):
        code, out = run(["verify", "--n", "3", "--p", "2", "--d", "1",
                         "--format", "tsv"])
        assert code == 0
        assert "# agreement_rate\t1/1" in out


class TestDeterminismAndUsage:
    def test_byte_identical_outputs(self):
        for argv in (["catalog", "--n", "6"],
                     ["slopes", "--module", "M(5)"],
                     ["verify", "--n", "4", "--p", "2", "--d", "1",
                      "--random", "5", "--seed", "3"]):
            _, out1 = run(argv)
            _, out2 = run(argv)
            assert out1 == out2

    def test_usage_errors(self):
        assert run(["slopes"])[0] == 2          # missing --module
        assert run(["frobnicate"])[0] == 2      # unknown command
        assert run(["verify", "--n", "5"])[0] == 0  # exhaustive default

    def test_not_prime(self):
        code, _ = run(["slopes", "--module", "N", "--p", "4"])
        assert code == 2

    def test_huge_p_fails_fast(self, capsys):
        # a 25-digit p is beyond the range where primality is proven
        code, out = run(["slopes", "--module", "N", "--p", "9" * 25])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be below" in err

    @pytest.mark.parametrize("n,valid", [(4096, "0, 2..4095"),
                                         (4095, "2..4095"), (3, "2..3"),
                                         (2, "0")])
    def test_bad_deformation_index_names_the_range(self, n, valid, capsys):
        code, out = run(["slopes", "--module", f"def({n}; s1=1)"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == (f"error: parameter indices [1] invalid for n={n}; "
                       f"valid indices are {valid}\n")
        assert len(err.encode()) < 200

    def test_sixty_bit_prime_runs(self):
        code, out = run(["slopes", "--module", "N", "--p",
                         "1000000000000000003"])
        assert code == 0
        assert json.loads(out)["polygon"]

    def test_version_embedded_everywhere(self):
        for argv in (["catalog", "--n", "3"],
                     ["slopes", "--module", "N"],
                     ["verify", "--n", "3", "--p", "2", "--d", "1"]):
            _, out = run(argv)
            assert json.loads(out)["version"] == __version__


class TestHugeModuleSpec:
    """A spec beyond the half-rank limit exits 2 with one line, before
    any context, display or power expansion is made."""

    @pytest.mark.parametrize("spec", ["N^99999999999", "M(200000)",
                                      "ss(100001)", "def(5000; s2=1)"])
    @pytest.mark.parametrize("command", ["slopes", "graph", "check"])
    def test_rejected_before_any_work(self, spec, command, monkeypatch,
                                      capsys):
        def refuse(*args):
            raise AssertionError("work started before the spec was refused")

        monkeypatch.setattr(cli, "make_context", refuse)
        monkeypatch.setattr(displayzoo.ModuleSpec, "build", refuse)
        code, out = run([command, "--module", spec])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "error: module spec exceeds half rank 4096\n"


class TestInvalidTermSize:
    """A term of invalid size, a parameter given twice or one that n does
    not have exits 2 with that term's own one-line message, before any
    context is made."""

    @pytest.mark.parametrize("spec,message", [
        ("M(-100)+N", "module_M needs m >= 2, got -100"),
        ("ss(-50)+N^3", "need n >= 3, got -50"),
        ("def(-9; )", "need n >= 3, got -9"),
        ("M(1)", "module_M needs m >= 2, got 1"),
        ("def(5; s2=1, s2=2)", "parameter s2 given twice"),
        ("def(4; s1=1)", "parameter indices [1] invalid for n=4; valid "
                         "indices are 0, 2..3"),
    ])
    @pytest.mark.parametrize("command", ["slopes", "check"])
    def test_refused_before_any_context(self, spec, message, command,
                                        monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a context was made before the spec was "
                                 "refused")

        monkeypatch.setattr(cli, "make_context", refuse)
        code, out = run([command, "--module", spec])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDoubledPrecisionCapacity:
    """At p = 3, d = 1, --precision 2^19 + 1 fits but twice it does not,
    which verify refuses because a retried point would certify at 2N;
    slopes works at N only, and --precision 2^20 + 1 does not fit."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "3", "--random", "2",
         "--precision", str((1 << 19) + 1)],
        ["slopes", "--module", "N", "--precision", str((1 << 20) + 1)],
    ])
    def test_exit_2_before_any_charpoly(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("work started before the capacity check")

        monkeypatch.setattr(_linalg, "charpoly", refuse)
        monkeypatch.setattr(_linalg, "_berkowitz", refuse)
        monkeypatch.setattr(RingContext, "teichmuller", refuse)
        code, out = run(argv + ["--p", "3"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "capacity exceeded" in err

    def test_slopes_needs_no_doubled_context(self):
        code, out = run(["slopes", "--module", "N", "--p", "3",
                         "--precision", str((1 << 19) + 1)])
        assert code == 0
        assert json.loads(out)["polygon"]["slopes"] == [
            {"num": 1, "den": 2, "mult": 2}]


def contexts_built(monkeypatch):
    """Precisions of the RingContexts set up from now on, fresh or
    derived."""
    built = []
    original = RingContext._init

    def spy(self, N, root):
        built.append(N)
        original(self, N, root)

    monkeypatch.setattr(RingContext, "_init", spy)
    return built


class TestRetryContexts:
    """At --precision 3 every point retries at 2N = 6, where n = 5 certifies
    and n = 4, d = 2 still fails; no context above 2N is ever built."""

    @pytest.mark.parametrize("argv,points,failure", [
        (["verify", "--n", "5", "--p", "3"], 81, None),
        (["verify", "--n", "4", "--p", "3", "--d", "2"], 729,
         "insufficient precision: hull vertex at degree 0 has valuation "
         ">= 6"),
    ])
    def test_contexts_at_n_and_2n_only(self, argv, points, failure,
                                       monkeypatch):
        built = contexts_built(monkeypatch)
        code, out = run(argv + ["--precision", "3"])
        doc = json.loads(out)
        assert {3, 6} <= set(built) <= {1, 3, 6}
        assert doc["points"] == doc["precision_retries"] == points
        failures = doc["precision_failures"]
        if failure is None:
            assert code == 0 and failures == []
        else:
            assert code == 3 and len(failures) == points
            assert {f["error"] for f in failures} == {failure}

    def test_no_retry_builds_no_doubled_context(self, monkeypatch):
        # the lanes are read off residues at N = 1 below N = 9: no
        # N* = d n + 1 = 6 at d = 1, and no 2N = 18
        built = contexts_built(monkeypatch)
        code, out = run(["verify", "--n", "5", "--p", "3", "--precision", "9"])
        assert code == 0 and json.loads(out)["precision_retries"] == 0
        assert set(built) == {9, 1}

    def test_no_retry_at_d3_builds_nstar_only(self, monkeypatch):
        # at d = 3 the lanes run at N* = d n + 1 = 13 below N = 20
        built = contexts_built(monkeypatch)
        code, out = run(["verify", "--n", "4", "--p", "2", "--d", "3",
                         "--precision", "20", "--random", "20", "--seed",
                         "1"])
        assert code == 0 and json.loads(out)["precision_retries"] == 0
        assert {20, 13} <= set(built) <= {20, 13, 1}


class TestRepeatedCommands:
    """One batch of each bench/run.py workload, run twice in one process:
    the second run, on what the first left in the process's memos (the
    parser, the deformation templates, the basis halves, the catalogs),
    prints the same bytes."""

    _DEF8 = "def(8; s0=2, s2=1, s3=0, s4=2, s5=1, s6=0, s7=2)"
    WORKLOADS = {
        "sweep_d1": [["verify", "--n", "8", "--p", "3", "--d", "1",
                      "--random", "25", "--seed", "7"]],
        "sweep_ext": [["verify", "--n", "5", "--p", "3", "--d", "2",
                       "--random", "12", "--seed", "7"]],
        "module_invariants": [
            [command, "--module", spec, "--p", p, "--d", d]
            for spec, p, d in (("N^24", "3", "1"), ("M(14)", "5", "2"),
                               (_DEF8, "3", "1"), ("M(6)+N^6", "3", "2"))
            for command in ("slopes", "check")],
    }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_second_run_prints_the_same_bytes(self, name):
        first = [run(argv) for argv in self.WORKLOADS[name]]
        second = [run(argv) for argv in self.WORKLOADS[name]]
        assert second == first
        assert {code for code, _ in first} == {0}


class TestPrecisionFailureLine:
    """Every exit 3 writes one line to stderr and the usual document to
    stdout."""

    V_LINE = "precision failure: V not computable at this precision\n"

    def test_verify(self, capsys):
        code, out = run(["verify", "--n", "4", "--p", "3", "--precision", "1",
                         "--random", "3"])
        assert code == 3
        assert capsys.readouterr().err == (
            "precision failure: 3 of 3 points not certified at N = 1 or "
            "2N = 2\n")
        assert len(json.loads(out)["precision_failures"]) == 3

    @pytest.mark.parametrize("module,precision", [("N", 1), ("M(2)", 2)])
    def test_check_with_v_undetermined(self, module, precision, capsys):
        code, out = run(["check", "--module", module, "--p", "3",
                         "--precision", str(precision)])
        assert code == 3 and capsys.readouterr().err == self.V_LINE
        doc = json.loads(out)
        assert doc["ok"] is False and doc["polarization_violations"] is None
        assert [(c["name"], c["details"])
                for c in doc["validation"]["checks"] if not c["passed"]] == [
            ("frobenius_invertible", ["V not computable at this precision"]),
            ("verschiebung_integral",
             ["skipped: V not computable at this precision"])]


class TestParserReuse:
    """main builds its argparse parser once per process."""

    SEQUENCE = [
        ["verify", "--n", "3", "--random", "4", "--seed", "9"],
        ["verify", "--n", "3", "--format", "tsv"],
        ["verify", "--n", "3"],  # exhaustive, json again
        ["slopes", "--module", "M(3)", "--d", "2", "--format", "tsv"],
        ["slopes", "--module", "M(3)"],  # d = 1, json again
        ["check", "--module", "N^2", "--p", "5"],
        ["slopes", "--bogus"],  # usage error
        ["check", "--module", "N^2"],  # p = 3 again
        ["verify", "--n", "3", "--random", "4"],  # seed 0 again
    ]
    # position in SEQUENCE -> (the same call with its defaults spelt out,
    # the earlier call whose value must not carry over)
    EXPLICIT = {
        2: (["verify", "--n", "3", "--format", "json"], 1),
        4: (["slopes", "--module", "M(3)", "--d", "1", "--format", "json"],
            3),
        7: (["check", "--module", "N^2", "--p", "3"], 5),
        8: (["verify", "--n", "3", "--random", "4", "--seed", "0"], 0),
    }

    def test_same_results_as_fresh_parsers(self, monkeypatch):
        cached = [run(argv) for argv in self.SEQUENCE]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli._build_parser)
        fresh = [run(argv) for argv in self.SEQUENCE]
        assert cached == fresh
        assert [code for code, _ in cached] == [0, 0, 0, 0, 0, 0, 2, 0, 0]
        # a value given in one call does not carry over into the next
        for k, (argv, earlier) in self.EXPLICIT.items():
            assert cached[k] == run(argv)
            assert cached[k] != cached[earlier]

    def test_no_argument_leaks_between_calls(self):
        parser = cli._parser()
        for argv in self.SEQUENCE:
            if argv[1:] == ["--bogus"]:
                continue
            assert vars(parser.parse_args(argv)) == \
                vars(cli._build_parser().parse_args(argv))
