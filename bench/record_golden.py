#!/usr/bin/env python3
"""Record the golden stdout digests in golden.json.

    python3 bench/record_golden.py

Runs batches 0..GOLDEN_BATCHES-1 of seed 0 of every workload, at both
scales, and stores the sha256 of each command's stdout under its argv.  A
digest is recorded only for an output that passes the report invariants.
The digests pin the program's output: regenerate them only when a change
to the output is intended.
"""

import json
import sys

import run

GOLDEN_BATCHES = {"full": 3, "tiny": 1}


def main():
    sys.path.insert(0, str(run.SRC))
    golden = {}
    for scale, workloads in run.WORKLOADS.items():
        for workload in workloads.values():
            cli = run.setup(workload)
            for i in range(GOLDEN_BATCHES[scale]):
                res = run.run_batch(cli, workload.batch(run.batch_seed(0, i)),
                                    {}, run.Clock())
                if res.failed:
                    print("\n".join(res.problems), file=sys.stderr)
                    return 1
                for cmd, text in zip(workload.batch(run.batch_seed(0, i)),
                                     res.outputs):
                    golden[run.golden_key(cmd.argv)] = run.digest(text)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n")
    print(f"wrote {len(golden)} digests to {run.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
