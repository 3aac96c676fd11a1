"""Time the modulus search and fit the bound wittring._check_search applies.

    python3 tools/modulus_search_cost.py [--target SECONDS]

make_context takes the first monic irreducible of degree d over F_p
(wittring._first_irreducible), testing candidates one by one.  A test is
a few powers of x in F_p[x]/(f): about d products of degree d for the
p-power table and its iterates, and the (p - 1)-th powers of norms, so it
costs about

    c * d^2 * (d + k * bits(p))

seconds, bits(p) the bit length of p.  About one monic polynomial of
degree d in d is irreducible, so a search tests about d candidates, and
_check_search bounds the work units

    d^3 * (d + k * bits(p))

of the search before it starts, and the search itself stops rather than
test a candidate past the limit, as the counts of candidates scatter
widely about d.  This script runs the search, uncached, on a grid of
(p, d), counts the candidates it tests, fits c and the integer k to the
time per candidate (least squares on the logarithms), and prints the
limit in work units that the fit puts at the target time (default 2 s).
It then lists, for some slow searches, their expected work units at the
weight and limit in force (wittring._SEARCH_BITS_WEIGHT,
_SEARCH_WORK_LIMIT) and whether _check_search refuses them, and with
--slow the time and the candidates of each accepted search.

gustrata is imported from the src/ directory of the script's own tree.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gustrata import wittring  # noqa: E402

GRID = [(p, d) for p in (2, 3, 5, 7, 1000003) for d in (8, 12, 16, 24, 32)]
# searches measured at a few seconds, to compare with the fitted limit
SLOW = [(2, 64), (3, 64), (1000003, 32), (2, 100), (7, 48)]


def timed_search(p, d):
    """(seconds, candidates tested, whether it found the modulus) of one
    uncached search."""
    tested = 0
    is_irreducible = wittring._is_irreducible

    def counting(f, q):
        nonlocal tested
        tested += 1
        return is_irreducible(f, q)

    wittring._is_irreducible = counting
    try:
        start = time.perf_counter()
        try:
            wittring._first_irreducible.__wrapped__(p, d)
        except ValueError:
            return time.perf_counter() - start, tested, False
        return time.perf_counter() - start, tested, True
    finally:
        wittring._is_irreducible = is_irreducible


def fit(samples):
    """(c, k) minimizing the squared log error of c d^2 (d + k bits) over
    samples of (p, d, seconds per candidate)."""
    best = None
    for k in range(1, 65):
        logs = [math.log(t / (d * d * (d + k * p.bit_length())))
                for p, d, t in samples]
        mean = sum(logs) / len(logs)
        err = sum((x - mean) ** 2 for x in logs)
        if best is None or err < best[0]:
            best = (err, math.exp(mean), k)
    return best[1], best[2]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--target", type=float, default=2.0)
    parser.add_argument("--slow", action="store_true",
                        help="also time the slow searches (about 15 s)")
    args = parser.parse_args()
    samples = []
    for p, d in GRID:
        seconds, tested, _ = timed_search(p, d)
        samples.append((p, d, seconds / tested))
        print(f"p={p} d={d}: {seconds * 1e3:.1f} ms, {tested} candidates")
    c, k = fit(samples)
    limit = args.target / c
    print(f"fit: c = {c:.3g} s, k = {k}; limit at {args.target} s: "
          f"{limit:.3g} work units")
    for p, d in SLOW:
        work = d * wittring._candidate_work(p, d)
        refused = work > wittring._SEARCH_WORK_LIMIT
        line = f"p={p} d={d}: {work} work units, " + (
            "refused" if refused else "accepted")
        if args.slow and not refused:
            seconds, tested, found = timed_search(p, d)
            line += (f", {'found' if found else 'stopped'} after {tested} "
                     f"candidates, {seconds:.2f} s")
        print(line)


if __name__ == "__main__":
    main()
