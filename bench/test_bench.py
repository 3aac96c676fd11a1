"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny"])
    lines = out.getvalue().splitlines()
    return rc, json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    rc, details, result = _run(workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    # every named metric is printed with its unit
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    # the digests are checked
    assert details["canary_golden_checked"] >= 1
    if trace:
        assert details["traced_batches"] >= 1
        assert details["traced_equals_untraced"] is True
        assert details["missing_targets"] == []
    # no patched function is left in place
    assert tracer.leftover_wrappers() == []


def test_golden_mismatch_fails_the_operation():
    workload = run.WORKLOADS["tiny"]["sweep_d1"]
    cli = run.setup(workload)
    commands = workload.batch(run.batch_seed(0, 0))
    wrong = {run.golden_key(c.argv): "0" * 64 for c in commands}
    res = run.run_batch(cli, commands, wrong, run.Clock())
    assert res.golden_checked == 1
    assert res.failed == workload.count


def test_tracer_patches_every_lookup_site_and_restores():
    run.setup(run.WORKLOADS["tiny"]["sweep_d1"])
    strata = sys.modules["gustrata.strata"]
    linalg = sys.modules["gustrata._linalg"]
    wittring = sys.modules["gustrata.wittring"]
    originals = (strata.newton_slopes, linalg.charpoly,
                 wittring.RingContext.teichmuller)
    with tracer.Tracer() as t:
        assert strata.newton_slopes is not originals[0]
        assert linalg.charpoly is not originals[1]
        assert wittring.RingContext.teichmuller is not originals[2]
        assert tracer.leftover_wrappers()
    assert t.missing == []
    assert (strata.newton_slopes, linalg.charpoly,
            wittring.RingContext.teichmuller) == originals
    assert tracer.leftover_wrappers() == []


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    # (name, start, end, parent, run_id, error, count)
    t.spans = [("cli.main", 0.0, 10.0, -1, 1, None, None),
               ("linalg.charpoly", 1.0, 4.0, 0, 1, None, None),
               ("linalg.charpoly", 5.0, 6.0, 0, 1, "PrecisionError", None)]
    agg = t.aggregate()
    assert agg["cli.main"]["busy_s"] == 10.0
    assert agg["cli.main"]["self_s"] == 6.0
    assert agg["linalg.charpoly"]["calls"] == 2
    assert agg["linalg.charpoly"]["errors"] == {"PrecisionError": 1}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
