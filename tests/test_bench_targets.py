"""Every entry point the benchmark's span recorder wraps (``TARGETS`` in
``perfbench/spans.py``) exists in tropzeta, so renaming or wrapping one fails
here and not only in a traced benchmark pass."""

import importlib
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


@pytest.mark.parametrize("module,path", [(t[1], t[2]) for t in spans.TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in spans.TARGETS])
def test_target_resolves(module, path):
    owner = importlib.import_module(f"tropzeta.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # the recorder patches the class attribute itself
        assert isinstance(owner.__dict__.get(attr), types.FunctionType)
    else:
        assert isinstance(getattr(owner, attr), types.FunctionType)
