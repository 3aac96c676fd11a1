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
