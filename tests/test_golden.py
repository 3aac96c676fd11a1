"""Golden CLI outputs: every argv list recorded in bench/golden.json must
still print stdout with the recorded sha256 digest.

The file is only read here; ``python3 bench/record_golden.py`` writes it.
A kernel change that moves a single output byte fails this test.
"""
import hashlib
import io
import json
from pathlib import Path

import pytest

from gustrata.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench"
                     / "golden.json").read_text())


def test_golden_file_is_populated():
    assert len(GOLDEN) >= 28


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_digest(key):
    argv = json.loads(key)
    out = io.StringIO()
    main(argv, out=out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[key]


PRECISION_LINE = ("precision failure: insufficient precision: hull vertex at "
                  "degree 0 has valuation >= {}\n")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# Large direct sums and precision failures that bench/golden.json does not
# hold: (argv, stdout sha256, stderr, exit code), recorded before the
# Newton polygon was read block by block.  A direct sum of k terms has k
# blocks, and the exit-3 cases raise from the summed constant terms.
PINNED = [
    (["slopes", "--module", "N^1000"],
     "ec057a32a2b5ed89e40dc34caa80ee2060d1378a4bcd8cc88457e9eef1ce8b89",
     "", 0),
    (["slopes", "--module", "M(600)+N^600"],
     "92dbb811d912c1e8dfd134bbb4ceb3f5a109fc4c5ff19dda55f24d6324345c6e",
     "", 0),
    (["slopes", "--module", "N^300", "--d", "2"],
     "895285b3203b53c0e361cbe552ae674bdfd998b4085eb584e28259a0b71833e1",
     "", 0),
    (["slopes", "--module", "M(40)+N^100", "--p", "5", "--d", "3"],
     "fbd7fa4f43a1e60ac8dd737d8275755a1b696fc8a733f76e9832d0d75abf1b29",
     "", 0),
    (["slopes", "--module", "N^60", "--precision", "3"],
     EMPTY, PRECISION_LINE.format(3), 3),
    (["slopes", "--module", "M(9)+N^9", "--d", "2", "--precision", "2"],
     EMPTY, PRECISION_LINE.format(2), 3),
    (["check", "--module", "N^1000"],
     "473b9866fe8e1e880971ad69db0a014cd89e85b7b4e94c45cf8fff0d9b7ea9bf",
     "", 0),
]


@pytest.mark.parametrize("argv,digest,err,code", PINNED,
                         ids=[" ".join(case[0]) for case in PINNED])
def test_pinned_output(argv, digest, err, code, capsys):
    out = io.StringIO()
    assert main(argv, out=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert capsys.readouterr() == ("", err)
