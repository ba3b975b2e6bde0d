"""The closed-form and lattice layers sit below the pipeline: models.py and
lattice.py import nothing from the modules that build on them (geometry
builds its parabola charts from models.parabola_form).  minimal.py sits
below the tree readers: it imports only from geometry and the layers under
it, so the polygon rules it shares with cutting and zeta stay in geometry.
Importing any tropzeta module loads the whole package, so the rule is read
from the source, not from sys.modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tropzeta"
PIPELINE = {"geometry", "minimal", "cutting", "zeta", "equiaffine", "farey"}
# the modules each layer must not import
ABOVE = {"models": PIPELINE, "lattice": PIPELINE,
         "minimal": {"cutting", "zeta", "equiaffine", "farey"}}


def _imported_modules(path):
    """The tropzeta modules a file imports, by their last name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("tropzeta"):
                continue
            if node.module and node.module != "tropzeta":
                out.add(node.module.split(".")[-1])
            else:  # from . import x, from tropzeta import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[-1] for alias in node.names
                       if alias.name.startswith("tropzeta"))
    return out


@pytest.mark.parametrize("name", list(ABOVE))
def test_lower_layers_import_no_pipeline_module(name):
    assert not _imported_modules(SRC / f"{name}.py") & ABOVE[name]


def test_the_guard_sees_relative_imports():
    assert {"models", "lattice"} <= _imported_modules(SRC / "geometry.py")
    assert "geometry" in _imported_modules(SRC / "cutting.py")
