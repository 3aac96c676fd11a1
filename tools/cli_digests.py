"""Digest the output of a fixed list of CLI invocations.

    python3 tools/cli_digests.py

Runs each invocation in one process through gustrata.cli.main and prints
one line per invocation: "sha256(stdout) sha256(stderr) exit  argv".  Run
it on two trees and diff the outputs: an empty diff means every listed
invocation writes the same bytes and exits the same way.  Each invocation
runs twice in a row, the second time on what the first left in the
process's memos (the parser, the deformation templates, the basis halves
and the catalogs); the line is printed once, and if the two digests
differ the script names the argv on stderr and exits 1.  gustrata is
imported from the src/ directory of the script's own tree, put first on
sys.path, so an installed copy is never digested in its place.

The list covers large direct sums that the golden file does not (slopes
and check, with precision failures), sums with repeated and nested
summands (M(6)+N^6 at d = 2, ss(6)+ss(6)+N, M(40)+N^100 at p = 5, d = 3,
and N^6 at N = 5, whose V is computable for each summand but not for the
sum, exit 3), exhaustive sweeps at n = 4..7, at
d = 2 and d = 3, a random rank-16 sweep, one of 129 points (across the
edges of the sweep's point chunks), one at d = 2, a sweep that fails for
lack of precision and one whose every point is certified only at 2N.
Three larger random sweeps (n = 40 at p = 3, n = 24 at p = 2 and n = 9 at
d = 2) give slope graphs on which the Bellman-Ford potentials of the
least-cycle-mean certificate take several rounds to settle.  The last three
lines digest the TSV report: an exhaustive sweep, one whose every point is
retried at 2N, and one that fails for lack of precision (exit 3).  Four
module commands cover the zoo builders' sparse form and the d = 2
Frobenius root: M(5) at N = 1, where the p entries vanish (exit 3), a sum
of two odd M(m) and N^2 that bumps labels in both families at p = 5, a
nested sum ss(8) + N at p = 7, and N^5 at d = 3, whose root comes from
Newton's method.  The last four lines cover the packed lanes of the
extension-ring polygons: random sweeps at d = 2 (p = 3), at d = 4 (p = 2,
where three top slots are folded) and at d = 2 with p = 1000003, and
M(14) at p = 5, d = 2, one lane of a large p^N.  The last two lines
cover the cycle table of the sweeps: the exhaustive rank-16 sweep, whose
points meet all 128 vanishing patterns of the parameters and record
extra-edge entries, and a random sweep at n = 64, whose template has
several hundred cycles through u_1.  The last four lines digest the
`graph` command, in JSON with its cycles through u_1 and in DOT: a
deformation point at rank 16 and M(6)+N^6 at d = 2.  The last four lines
cover the signed lanes at d = 1, whose entries are reduced only once a
lane leaves (-p^N, p^N): random sweeps at p = 5, where the lifts of F_5
are large and products reduce, and at p = 1000003, and two at p = 2 and
low precision, one whose points retry at 2N and one that fails for lack
of precision (exit 3).  The last two lines cover the Teichmuller lifts and
the twisted factors that a sweep reads off them: a random sweep at odd
d = 3 past n = 3 (p = 2, whose small field memoizes every lift as a power
of one lift) and one at d = 6 (p = 3, whose lifts run at N* = 25, where
729 residues take fourteen roots of their own before the fifteenth lift
walks the powers of one of those fourteen lifts, and whose six twists of
the lifts fill six factors).  The last three lines cover
the catalog report, written like every JSON report by strata.json_text,
and a single display at d = 2 that is not a sum, whose polygon runs on
the base ops: slopes and check of a deformation point of rank 10.  The
last four lines cover sweeps at n = 32, whose lanes run at the certifying
precision N* = d n + 1 below the reported N: random sweeps at d = 2
(p = 3) and at d = 3 (p = 2), and the d = 2 sweep at --precision 40,
below N* = 65, where every point retries at 2N, and at N* itself.  The
last five lines cover the charpolys that sweeps at d <= 2 read off the
template in closed form: exhaustive sweeps at d = 2 for odd n = 3 and
even n = 4 (the s_0 term), a d = 2 sweep at --precision 9, below
N* = 15, whose points retry at 2N, and random sweeps at n = 160 (p = 3)
and at odd n = 65 (p = 5, d = 2).  The last two lines cover the cycle
table in closed form: a sweep at --precision 1, where the table at N = 1
holds only the weight-0 cycle and every point retries with the table at
2, whose cycles of positive weight all hold EXTRA (exit 3), and a random
sweep at n = 256, the largest n a sweep accepts.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gustrata import cli  # noqa: E402

ARGVS = [
    ["slopes", "--module", "N^1000"],
    ["slopes", "--module", "M(600)+N^600"],
    ["slopes", "--module", "N^300", "--d", "2"],
    ["slopes", "--module", "M(40)+N^100", "--p", "5", "--d", "3"],
    ["slopes", "--module", "N^60", "--precision", "3"],
    ["slopes", "--module", "M(9)+N^9", "--d", "2", "--precision", "2"],
    ["check", "--module", "N^1000"],
    ["check", "--module", "M(6)+N^6", "--d", "2"],
    ["check", "--module", "N^6", "--precision", "5"],
    ["slopes", "--module", "ss(6)+ss(6)+N", "--d", "2"],
    ["check", "--module", "M(40)+N^100", "--p", "5", "--d", "3"],
    *[["verify", "--n", str(n), "--p", "3"] for n in (4, 5, 6, 7)],
    ["verify", "--n", "4", "--p", "3", "--d", "2"],
    ["verify", "--n", "8", "--p", "3", "--random", "200", "--seed", "1"],
    ["verify", "--n", "5", "--p", "3", "--precision", "2", "--random", "20"],
    ["verify", "--n", "8", "--p", "3", "--random", "129", "--seed", "3"],
    ["verify", "--n", "5", "--p", "3", "--precision", "5"],
    ["verify", "--n", "3", "--p", "3", "--d", "3"],
    ["verify", "--n", "6", "--p", "3", "--d", "2", "--random", "100"],
    ["verify", "--n", "40", "--p", "3", "--random", "64", "--seed", "2"],
    ["verify", "--n", "24", "--p", "2", "--random", "200", "--seed", "4"],
    ["verify", "--n", "9", "--p", "3", "--d", "2", "--random", "100",
     "--seed", "6"],
    ["verify", "--n", "6", "--p", "3", "--format", "tsv"],
    ["verify", "--n", "5", "--p", "3", "--precision", "5", "--format", "tsv"],
    ["verify", "--n", "5", "--p", "3", "--precision", "2", "--random", "20",
     "--format", "tsv"],
    ["check", "--module", "M(5)", "--d", "2", "--precision", "1"],
    ["slopes", "--module", "M(7)+M(3)+N^2", "--p", "5", "--d", "2"],
    ["check", "--module", "ss(8)+N", "--p", "7", "--d", "2"],
    ["slopes", "--module", "N^5", "--p", "5", "--d", "3"],
    ["verify", "--n", "5", "--p", "3", "--d", "2", "--random", "300",
     "--seed", "4"],
    ["verify", "--n", "4", "--p", "2", "--d", "4", "--random", "200",
     "--seed", "2"],
    ["verify", "--n", "5", "--p", "1000003", "--d", "2", "--random", "20",
     "--seed", "1"],
    ["slopes", "--module", "M(14)", "--p", "5", "--d", "2"],
    ["verify", "--n", "8", "--p", "3"],
    ["verify", "--n", "64", "--p", "3", "--random", "64", "--seed", "5"],
    ["graph", "--module", "def(8; s0=1, s2=2, s5=1)"],
    ["graph", "--module", "def(8; s0=1, s2=2, s5=1)", "--dot"],
    ["graph", "--module", "M(6)+N^6", "--d", "2"],
    ["graph", "--module", "M(6)+N^6", "--d", "2", "--dot"],
    ["verify", "--n", "6", "--p", "5", "--random", "100", "--seed", "6"],
    ["verify", "--n", "8", "--p", "1000003", "--random", "16", "--seed", "7"],
    ["verify", "--n", "7", "--p", "2", "--precision", "6", "--random", "60",
     "--seed", "9"],
    ["verify", "--n", "6", "--p", "2", "--precision", "3", "--random", "40",
     "--seed", "8"],
    ["verify", "--n", "6", "--p", "2", "--d", "3", "--random", "100",
     "--seed", "8"],
    ["verify", "--n", "4", "--p", "3", "--d", "6", "--random", "40",
     "--seed", "5"],
    ["catalog", "--n", "9"],
    ["slopes", "--module", "def(5; s2=1, s3=2)", "--d", "2"],
    ["check", "--module", "def(5; s2=1, s3=2)", "--d", "2"],
    ["verify", "--n", "32", "--p", "3", "--d", "2", "--random", "4",
     "--seed", "2"],
    ["verify", "--n", "32", "--p", "2", "--d", "3", "--random", "4",
     "--seed", "3"],
    ["verify", "--n", "32", "--p", "3", "--d", "2", "--random", "4",
     "--seed", "2", "--precision", "40"],
    ["verify", "--n", "32", "--p", "3", "--d", "2", "--random", "4",
     "--seed", "2", "--precision", "65"],
    ["verify", "--n", "3", "--p", "2", "--d", "2"],
    ["verify", "--n", "4", "--p", "2", "--d", "2"],
    ["verify", "--n", "7", "--p", "2", "--d", "2", "--precision", "9",
     "--random", "50", "--seed", "8"],
    ["verify", "--n", "160", "--p", "3", "--random", "64", "--seed", "2"],
    ["verify", "--n", "65", "--p", "5", "--d", "2", "--random", "8",
     "--seed", "9"],
    ["verify", "--n", "9", "--p", "3", "--precision", "1", "--random", "30",
     "--seed", "1"],
    ["verify", "--n", "256", "--p", "3", "--random", "8", "--seed", "2"],
]


def digest(argv):
    """(stdout sha256, stderr sha256, exit code) of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return tuple(hashlib.sha256(s.getvalue().encode()).hexdigest()
                 for s in (out, err)) + (code,)


def main():
    status = 0
    for argv in ARGVS:
        first = digest(argv)
        out, err, code = first
        print(out, err, code, " ".join(argv))
        if digest(argv) != first:
            print(f"second run differs: {' '.join(argv)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
