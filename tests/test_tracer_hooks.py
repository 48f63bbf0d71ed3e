"""The benchmark tracer (bench/tracing.py) wraps apolar functions by name
from outside the package; a renamed or deleted name would only show up
when a traced benchmark run crashes.  These checks read bench/ and edit
nothing there."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner_path, attr", [w[:2] for w in tracing.WRAPS])
def test_every_wrapped_name_exists(owner_path, attr):
    owner = tracing._resolve(owner_path)
    assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} is gone"
