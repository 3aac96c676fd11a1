#!/usr/bin/env python3
"""Benchmark of gustrata: certified-sweep throughput and module-invariant time.

    python3 bench/run.py --workload sweep_d1 --seed 3 --seconds 30 --trace 0

Every workload is driven in-process through ``gustrata.cli.main(argv, out)``,
imported from ``src/`` next to this directory, as a closed loop with one
caller: the next batch starts only after the previous one has returned and
its output has been checked.  An operation is one sweep point or one module
command.

A run has three phases:

1. Set-up, done SETUP_REPS times: import every gustrata module afresh and
   make the workload's contexts at N and at 2N.  ``setup_s`` is the median.
2. Canary: batch 0 of seed 0, whose outputs have golden digests in
   ``golden.json``.  It also lets lazy set-up finish before timing.
3. The timed loop, for ``--seconds``: batch i uses batch seed
   ``seed * 10000 + i``.  Each output is checked against its golden digest
   when one is recorded, and against the report invariants always.

Every timed call is calibrated: its wall time is rescaled by a reference
kernel timed on either side of it (see Clock), which cancels the swings in
CPU speed of a shared machine.  Raw wall times go to the details line.

With ``--trace 0`` the result holds the end-to-end metrics: ``ops_per_s``
(operations per calibrated second of CLI time), ``batch_s`` (median
calibrated time of one batch), ``setup_s``, ``peak_rss_mb`` and
``success_rate`` (operations that passed every check over operations
attempted).

With ``--trace 1`` the loop runs every batch twice, untraced and traced in
alternating order, and requires byte-identical stdout from both.  The result
holds, per traced function, ``<name>.calls``, ``<name>.busy_s`` and
``<name>.self_s`` averaged per traced batch, the waste ratios, and
``trace.overhead`` (traced over untraced calibrated time).  The spans are
written to ``out/`` beside this file.

The last line of stdout is the result; the line before it holds the
provenance of the run and the sample details.  Compare results only with
results that have the same provenance (machine, Python, nproc).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH / "golden.json"
SPANS_DIR = BENCH / "out"

SETUP_REPS = 15
BATCH_SEED_STRIDE = 10_000
HALF = Fraction(1, 2)

sys.path.insert(0, str(BENCH))
from tracer import TRACED_NAMES, Tracer, leftover_wrappers  # noqa: E402


# ---------------------------------------------------------------------------
# expected Newton polygons, computed independently of the program


def _polygon(parts):
    merged = {}
    for slope, mult in parts:
        if mult:
            merged[Fraction(slope)] = merged.get(Fraction(slope), 0) + mult
    return tuple(sorted(merged.items()))


def polygon_N(k):
    return ((HALF, 2 * k),)


def polygon_M(m):
    """M(2h) has slopes (h-1)/2h and (h+1)/2h, each with multiplicity 2h."""
    if m % 2:
        raise ValueError("only M(m) with even m has a closed-form polygon")
    h = m // 2
    return ((Fraction(h - 1, 2 * h), m), (Fraction(h + 1, 2 * h), m))


def stratum_polygon(n, label):
    """Catalog polygon of a rank-2n stratum: sigma, or xi_2j realized by
    M(2h) + N^(n-2h) with h = floor(n/2) + 1 - j."""
    if label == "sigma":
        return polygon_N(n)
    h = n // 2 + 1 - int(label[3:]) // 2
    return _polygon(polygon_M(2 * h) + polygon_N(n - 2 * h))


def predicted_stratum(n, values):
    """Vanishing-pattern prediction from the parameter codes, listed as the
    CLI lists them: s2..sn for odd n, s0, s2..s(n-1) for even n."""
    if n % 2:
        coords = dict(zip(range(2, n + 1), values))
        nonzero = [i for i in range(2, n, 2) if coords[i]]
        return f"xi_{max(nonzero)}" if nonzero else "sigma"
    coords = dict(zip((0,) + tuple(range(2, n)), values))
    contributed = [1] if coords[0] else []
    contributed += [i // 2 + 1 for i in range(2, n - 1, 2) if coords[i]]
    return f"xi_{2 * max(contributed)}" if contributed else "sigma"


def _doc_polygon(doc):
    return tuple((Fraction(e["num"], e["den"]), e["mult"])
                 for e in doc["polygon"]["slopes"])


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv, the operations it counts for, and the check
    of its exit code and stdout, returning (failed operations, problem)."""
    argv: tuple
    ops: int
    check: object
    points: int = 0


@dataclass(frozen=True)
class SweepWorkload:
    """``verify --random K`` over the universal deformation at (n, p, d)."""
    name: str
    n: int
    p: int
    d: int
    count: int

    def params(self):
        return {"command": "verify", "n": self.n, "p": self.p, "d": self.d,
                "random": self.count}

    def contexts(self):
        return [(self.p, self.d, self.n)]

    def batch(self, seed):
        argv = ("verify", "--n", str(self.n), "--p", str(self.p),
                "--d", str(self.d), "--random", str(self.count),
                "--seed", str(seed))
        return [Command(argv, self.count,
                        lambda rc, text: self._check(seed, rc, text),
                        points=self.count)]

    def predicted_counts(self, seed):
        """Stratum counts the sweep must report: the points drawn as the
        README specifies, classified by the vanishing-pattern rule."""
        rng = random.Random(seed)
        q = self.p ** self.d
        counts = {}
        for _ in range(self.count):
            values = [rng.randrange(q) for _ in range(self.n - 1)]
            label = predicted_stratum(self.n, values)
            counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items()))

    def _check(self, seed, rc, text):
        k = self.count
        if rc != 0:
            return k, f"exit code {rc}"
        try:
            rep = json.loads(text)
            echo = (rep["n"], rep["p"], rep["d"], rep["points"],
                    rep["mode"]["kind"], rep["mode"]["count"],
                    rep["mode"]["seed"])
            if echo != (self.n, self.p, self.d, k, "random", k, seed):
                return k, f"report echoes {echo}"
            agreeing = sum(row.get(label, 0)
                           for label, row in rep["agreement"].items())
            bad = (len(rep["precision_failures"])
                   + len(rep["lemma_violations"]) + (k - agreeing))
            if bad or rep["agreement_rate"] != "1/1":
                return min(k, max(bad, 1)), (
                    f"agreement_rate {rep['agreement_rate']}, "
                    f"{len(rep['lemma_violations'])} lemma violations, "
                    f"{len(rep['precision_failures'])} precision failures")
            if rep["counts_by_stratum"] != self.predicted_counts(seed):
                return k, "stratum counts differ from the predicted ones"
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return k, f"malformed report: {exc!r}"
        return 0, None


@dataclass(frozen=True)
class ModuleWorkload:
    """``slopes`` then ``check`` on each module of a fixed list, plus one
    even-n deformation point drawn from the batch seed (s0 nonzero, so the
    s0 couplings of the even template are present)."""
    name: str
    n_power: int
    m: int
    def_n: int
    sum_m: int
    sum_n: int

    def params(self):
        return {"commands": ["slopes", "check"],
                "modules": [f"N^{self.n_power} p=3 d=1",
                            f"M({self.m}) p=5 d=2",
                            f"def({self.def_n}; seeded) p=3 d=1",
                            f"M({self.sum_m})+N^{self.sum_n} p=3 d=2"]}

    def modules(self, seed):
        """(spec, p, d, half rank, expected polygon) for each module."""
        rng = random.Random(seed)
        n = self.def_n
        values = [rng.randrange(1, 3)] + [rng.randrange(3)
                                          for _ in range(n - 2)]
        names = ["s0"] + [f"s{i}" for i in range(2, n)]
        spec = f"def({n}; " + ", ".join(
            f"{k}={v}" for k, v in zip(names, values)) + ")"
        return [
            (f"N^{self.n_power}", 3, 1, self.n_power,
             polygon_N(self.n_power)),
            (f"M({self.m})", 5, 2, self.m, polygon_M(self.m)),
            (spec, 3, 1, n, stratum_polygon(n, predicted_stratum(n, values))),
            (f"M({self.sum_m})+N^{self.sum_n}", 3, 2, self.sum_m + self.sum_n,
             _polygon(polygon_M(self.sum_m) + polygon_N(self.sum_n))),
        ]

    def contexts(self):
        return [(p, d, half) for _, p, d, half, _ in self.modules(0)]

    def batch(self, seed):
        commands = []
        for spec, p, d, _, polygon in self.modules(seed):
            tail = ("--module", spec, "--p", str(p), "--d", str(d))
            commands.append(Command(
                ("slopes",) + tail, 1,
                lambda rc, text, pg=polygon, p=p, d=d:
                    self._check_slopes(pg, p, d, rc, text)))
            commands.append(Command(("check",) + tail, 1, self._check_check))
        return commands

    @staticmethod
    def _check_slopes(polygon, p, d, rc, text):
        if rc != 0:
            return 1, f"exit code {rc}"
        try:
            doc = json.loads(text)
            if (doc["context"]["p"], doc["context"]["d"]) != (p, d):
                return 1, "wrong context"
            got = _doc_polygon(doc)
            if got != polygon:
                return 1, f"polygon {got} != expected {polygon}"
            zero = dict(polygon).get(Fraction(0), 0)
            if doc["p_rank"] != zero:
                return 1, f"p_rank {doc['p_rank']} != {zero}"
        except (ValueError, KeyError, TypeError) as exc:
            return 1, f"malformed report: {exc!r}"
        return 0, None

    @staticmethod
    def _check_check(rc, text):
        if rc != 0:
            return 1, f"exit code {rc}"
        try:
            doc = json.loads(text)
            if not (doc["ok"] is True and doc["validation"]["ok"] is True
                    and doc["polarization_violations"] == []):
                return 1, "check report is not ok"
        except (ValueError, KeyError, TypeError) as exc:
            return 1, f"malformed report: {exc!r}"
        return 0, None


# Sweep batches take about 0.1 s, so a run holds a few hundred of them; the
# module list holds a d=1 sum of rank >= 48.
WORKLOADS = {
    "full": {
        "sweep_d1": SweepWorkload("sweep_d1", n=8, p=3, d=1, count=25),
        "sweep_ext": SweepWorkload("sweep_ext", n=5, p=3, d=2, count=12),
        "module_invariants": ModuleWorkload(
            "module_invariants", n_power=24, m=14, def_n=8, sum_m=6,
            sum_n=6),
    },
    "tiny": {
        "sweep_d1": SweepWorkload("sweep_d1", n=8, p=3, d=1, count=3),
        "sweep_ext": SweepWorkload("sweep_ext", n=5, p=3, d=2, count=2),
        "module_invariants": ModuleWorkload(
            "module_invariants", n_power=3, m=4, def_n=4, sum_m=2, sum_n=2),
    },
}


def batch_seed(seed, i):
    return seed * BATCH_SEED_STRIDE + i


def golden_key(argv):
    return json.dumps(list(argv))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# timing

# The reference kernel: fixed pure-Python big-integer work like the program's
# inner loops, independent of the program.  On a shared machine the speed of
# the CPU swings by 25% between 10-second windows, and the program and the
# kernel slow down together; timing the kernel between every two timed calls
# and rescaling each call by it cancels most of that swing.  After each call
# the kernel runs for about REF_SHARE of the call's time, so a long call is
# rescaled by a long sample.  REF_NOMINAL_S is the kernel's time on an idle
# 2-core Xeon VM, so calibrated seconds read as seconds on that machine.
REF_MOD = 3 ** 80
REF_ROWS = tuple(tuple((i * 7919 + j * 104729) % REF_MOD for j in range(16))
                 for i in range(16))
REF_NOMINAL_S = 0.0025
REF_SHARE = 0.1


def reference_kernel():
    acc = 0
    for _ in range(40):
        w = REF_ROWS[0]
        for row in REF_ROWS:
            acc = (acc + sum(a * b for a, b in zip(row, w))) % REF_MOD
            w = [(a + acc) % REF_MOD for a in row]
    return acc


class Clock:
    """Times calls between two runs of the reference kernel.

    ``time`` returns the call's wall seconds and its calibrated seconds:
    wall seconds times REF_NOMINAL_S over the mean kernel time on either
    side of the call.  Adjacent calls share the kernel runs between them.
    """

    def __init__(self):
        self.refs = [self._reference(1)]

    @staticmethod
    def _reference(reps):
        start = perf_counter()
        for _ in range(reps):
            reference_kernel()
        return (perf_counter() - start) / reps

    def time(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        self.refs.append(self._reference(
            max(1, int(REF_SHARE * wall / REF_NOMINAL_S))))
        scale = 2 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])
        return result, wall, wall * scale


# ---------------------------------------------------------------------------
# running


def setup(workload):
    """Import every gustrata module afresh, then make the workload's
    contexts at N and 2N; returns the cli module."""
    for name in [k for k in sys.modules
                 if k == "gustrata" or k.startswith("gustrata.")]:
        del sys.modules[name]
    cli = importlib.import_module("gustrata.cli")
    wittring = sys.modules["gustrata.wittring"]
    for p, d, half_rank in workload.contexts():
        ctx = wittring.make_context(
            p, d, wittring.default_precision(half_rank, d))
        ctx.at_precision(2 * ctx.N)
    return cli


@dataclass
class BatchResult:
    seconds: float
    wall_s: float
    ops: int
    points: int
    failed: int
    outputs: list
    golden_checked: int
    problems: list


def _call(cli, argv, out):
    try:
        return cli.main(list(argv), out)
    except Exception:
        traceback.print_exc()
        return None


def run_batch(cli, commands, golden, clock, tracer=None):
    """Run one batch; its ``seconds`` are calibrated, ``wall_s`` are not.
    A tracer gets a new run id per command and that command's calibration
    scale."""
    seconds = wall_s = 0.0
    failed = golden_checked = 0
    outputs = []
    problems = []
    for cmd in commands:
        out = io.StringIO()
        if tracer is not None:
            tracer.run_id += 1
        rc, wall, cal = clock.time(_call, cli, cmd.argv, out)
        if tracer is not None:
            tracer.scales[tracer.run_id] = cal / wall if wall else 1.0
        seconds += cal
        wall_s += wall
        text = out.getvalue()
        outputs.append(text)
        bad, problem = cmd.check(rc, text)
        want = golden.get(golden_key(cmd.argv))
        if want is not None:
            golden_checked += 1
            if digest(text) != want:
                bad, problem = cmd.ops, "stdout differs from its golden digest"
        if bad:
            failed += bad
            problems.append(f"{' '.join(cmd.argv)}: {problem}")
    return BatchResult(seconds, wall_s, sum(c.ops for c in commands),
                       sum(c.points for c in commands), failed, outputs,
                       golden_checked, problems)


class Tally:
    """Operations attempted and failed, golden digests checked, problems."""

    def __init__(self):
        self.attempted = self.failed = self.golden_checked = 0
        self.problems = []

    def add(self, res):
        self.attempted += res.ops
        self.failed += res.failed
        self.golden_checked += res.golden_checked
        self.problems.extend(res.problems)
        return res


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(cli, workload, seed, seconds, golden, clock, tally):
    """The untraced closed loop; returns the timing metrics and details."""
    batches = []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        commands = workload.batch(batch_seed(seed, i))
        batches.append(tally.add(run_batch(cli, commands, golden, clock)))
        i += 1
        if perf_counter() >= deadline:
            break
    times = [b.seconds for b in batches]
    walls = [b.wall_s for b in batches]
    ops = sum(b.ops for b in batches)
    metrics = {
        "ops_per_s": (ops / sum(times), "1/s"),
        "batch_s": (statistics.median(times), "s"),
    }
    details = {"batches": len(batches), "ops": ops,
               "batch_s_quartiles": _quartiles(times),
               "wall_ops_per_s": ops / sum(walls),
               "wall_batch_s": statistics.median(walls)}
    return metrics, details


def measure_traced(cli, workload, seed, seconds, golden, clock, tally,
                   spans_path):
    """The closed loop with every batch run untraced and traced, in
    alternating order; returns the per-layer metrics and details."""
    tracer = Tracer()
    plain_s = traced_s = 0.0
    traced_batches = points = ops = mismatched = 0
    deadline = perf_counter() + seconds
    i = 0
    while True:
        commands = workload.batch(batch_seed(seed, i))
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    results[traced] = tally.add(
                        run_batch(cli, commands, golden, clock, tracer))
            else:
                results[traced] = tally.add(
                    run_batch(cli, commands, golden, clock))
        plain, traced = results[False], results[True]
        if plain.outputs != traced.outputs:
            mismatched += 1
            tally.problems.append(f"batch {i}: traced stdout differs")
        plain_s += plain.seconds
        traced_s += traced.seconds
        traced_batches += 1
        points += traced.points
        ops += traced.ops
        i += 1
        if perf_counter() >= deadline:
            break
    leftovers = leftover_wrappers()
    tracer.write(spans_path)

    agg = tracer.aggregate()
    metrics = {}
    for name in TRACED_NAMES:
        row = agg[name]
        metrics[f"{name}.calls"] = (row["calls"] / traced_batches, "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"] / traced_batches, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / traced_batches, "s")

    def per(count, base):
        return count / base if base else 0.0

    # Every operation builds one display: a sweep point or a module command.
    slopes = agg["fcrystal.newton_slopes"]
    metrics.update({
        "linalg.charpoly.per_point":
            (per(agg["linalg.charpoly"]["calls"], points), "ratio"),
        "linalg.adjugate_action.per_display":
            (per(agg["linalg.adjugate_action"]["calls"], ops), "ratio"),
        "strata.retry_rate":
            (per(slopes["errors"].get("PrecisionError", 0), points), "ratio"),
        "slopegraph.cycles.per_point":
            (per(agg["slopegraph.cycles_through"]["count"], points), "ratio"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    })
    details = {"traced_batches": traced_batches,
               "traced_equals_untraced": mismatched == 0,
               "spans": len(tracer.spans), "missing_targets": tracer.missing,
               "leftover_wrappers": leftovers,
               "spans_file": str(spans_path.relative_to(ROOT))}
    if leftovers:
        tally.problems.append(f"wrappers left in place: {leftovers}")
    return metrics, details


# ---------------------------------------------------------------------------
# provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gustrata").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload):
    uname = os.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "system": " ".join((uname.sysname, uname.release, uname.machine)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "scale": args.scale,
        "params": workload.params(),
        "seed": args.seed,
        "batch_seeds_from": batch_seed(args.seed, 0),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(WORKLOADS), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gustrata" / "__init__.py").is_file():
        print(f"error: gustrata sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if not GOLDEN_PATH.is_file():
        print(f"error: golden digests not found at {GOLDEN_PATH}",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN_PATH.read_text())
    workload = WORKLOADS[args.scale][args.workload]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    clock = Clock()
    setup_times = []
    setup_walls = []
    for _ in range(SETUP_REPS):
        cli, wall, cal = clock.time(setup, workload)
        setup_times.append(cal)
        setup_walls.append(wall)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gustrata from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tally = Tally()
    canary = tally.add(run_batch(cli, workload.batch(batch_seed(0, 0)),
                                 golden, clock))
    if args.trace:
        spans_path = SPANS_DIR / (f"spans_{args.workload}_{args.scale}_"
                                  f"seed{args.seed}.jsonl")
        metrics, details = measure_traced(
            cli, workload, args.seed, args.seconds, golden, clock, tally,
            spans_path)
    else:
        metrics, details = measure(cli, workload, args.seed, args.seconds,
                                   golden, clock, tally)
        metrics.update({
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (1 - tally.failed / tally.attempted, "ratio"),
        })
    correct = (tally.failed == 0 and canary.golden_checked > 0
               and not tally.problems)
    details.update({
        "canary_golden_checked": canary.golden_checked,
        "golden_checked": tally.golden_checked,
        "setup_s_quartiles": _quartiles(setup_times),
        "wall_setup_s": statistics.median(setup_walls),
        "reference_s_quartiles": _quartiles(clock.refs),
        "problems": tally.problems[:20],
    })
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, workload),
                      "details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
