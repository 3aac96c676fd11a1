"""Every function bench/tracer.py traces still exists in gustrata, so that
removing or renaming a traced kernel fails here and not only in the bench
suite (whose tracer reports it under missing_targets)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name,module,attr,measure", tracer.TARGETS,
                         ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves_to_a_callable(name, module, attr, measure):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = vars(owner).get(part)
        assert owner is not None, f"{name}: {module}.{attr} is gone"
    assert callable(owner), name
