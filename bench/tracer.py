"""Outside-in tracer for the gustrata layers.

Each traced function is wrapped where its callers look the name up: every
``gustrata`` module attribute bound to the original function object (so
``gustrata.strata.newton_slopes``, ``gustrata.cli.newton_slopes`` and
``gustrata.fcrystal.newton_slopes`` are all wrapped), or the class attribute
for a method such as ``RingContext.teichmuller``.  The program's source is
never edited; ``restore`` puts every original back.

A span is ``(name, start, end, parent, run_id, error, count)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``run_id`` identifies the
CLI call the span belongs to, ``error`` is the exception type name when the
call raised, and ``count`` is the size of the result for targets that
declare one (the number of cycles ``cycles_through`` enumerated).  Spans stay
in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

_MARK = "__bench_traced__"

# (metric name, defining module, attribute, result measure).  Metric names
# drop the leading underscore of ``_linalg`` because metric names must start
# with a letter.
TARGETS = (
    ("cli.main", "gustrata.cli", "main", None),
    ("strata.verify_local_strata", "gustrata.strata", "verify_local_strata",
     None),
    ("strata.classify", "gustrata.strata", "classify", None),
    ("displayzoo.deformation_display", "gustrata.displayzoo",
     "deformation_display", None),
    ("displayzoo.direct_sum", "gustrata.displayzoo", "direct_sum", None),
    ("wittring.teichmuller", "gustrata.wittring", "RingContext.teichmuller",
     None),
    ("fcrystal.newton_slopes", "gustrata.fcrystal", "newton_slopes", None),
    ("fcrystal.validate_display", "gustrata.fcrystal", "validate_display",
     None),
    ("fcrystal.polarization_check", "gustrata.fcrystal", "polarization_check",
     None),
    ("fcrystal.a_number", "gustrata.fcrystal", "a_number", None),
    ("fcrystal.signature", "gustrata.fcrystal", "signature", None),
    ("linalg.charpoly", "gustrata._linalg", "charpoly", None),
    ("linalg.adjugate_action", "gustrata._linalg", "adjugate_action", None),
    ("linalg.twisted_product", "gustrata._linalg", "twisted_product", None),
    ("linalg.mat_mul", "gustrata._linalg", "mat_mul", None),
    ("slopegraph.build_graph", "gustrata.slopegraph", "build_graph", None),
    ("slopegraph.cycles_through", "gustrata.slopegraph", "cycles_through",
     len),
    ("slopegraph.karp_min_cycle_mean", "gustrata.slopegraph",
     "karp_min_cycle_mean", None),
)
TRACED_NAMES = tuple(t[0] for t in TARGETS)


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "gustrata" or name.startswith("gustrata."))]


def leftover_wrappers():
    """Names of tracer wrappers still bound anywhere in the program."""
    found = []
    for mod in _program_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


class Tracer:
    """Installs span-recording wrappers around the TARGETS, then restores."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.run_id = 0
        self.scales = {}  # run id -> calibration scale of that CLI call
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            count = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    count = measure(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, error,
                              count)

        setattr(traced, _MARK, True)
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        for name, mod_name, attr, measure in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = mod
            if mod is not None and owner_name:
                owner = vars(mod).get(owner_name)
            original = vars(owner).get(fn_name) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, measure)
            if owner_name:
                sites = [owner]
            else:
                sites = [m for m in modules
                         if any(v is original for v in vars(m).values())]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, key, original))
                        setattr(site, key, wrapper)

    def restore(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def aggregate(self):
        """Per traced name: calls, busy seconds, self seconds (duration
        minus the time covered by child spans), errors by type, and the
        summed result counts.  Durations are multiplied by the calibration
        scale of their run id, 1 when none was set."""
        durs = [(end - start) * self.scales.get(run_id, 1.0)
                for _, start, end, _, run_id, *_ in self.spans]
        child = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durs):
            if span[3] >= 0:
                child[span[3]] += dur
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": {},
                   "count": 0} for n in TRACED_NAMES}
        for i, (name, _, _, _, _, error, count) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += durs[i]
            row["self_s"] += durs[i] - child[i]
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
            if count is not None:
                row["count"] += count
        return out

    def write(self, path):
        """Write the spans, one JSON array per line, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
