"""The closed-form and lattice layers sit below the pipeline: models.py and
lattice.py import nothing from the modules that build on them (geometry
builds its parabola charts from models.parabola_form).  minimal.py sits
below the tree readers: it imports only from geometry and the layers under
it, so the polygon rules it shares with cutting and zeta stay in geometry.
Importing any tropzeta module loads the whole package, so the rule is read
from the source, not from sys.modules.

scipy is imported only inside the functions that use it (the Farey H_s
closed form and its quadrature), so `import tropzeta` does not load it.

Every function and method of the package has a reader: its name appears
somewhere besides its own definition, in the package or in the benchmark.
Reference values that only tests compare against live in the tests."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
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


def _import_time_modules(path):
    """The absolute module names a file imports outside every function body."""
    out, stack = set(), [ast.parse(path.read_text())]
    while stack:
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                out.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module)
            stack.append(node)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_scipy_at_import_time(path):
    assert not [m for m in _import_time_modules(path) if m.split(".")[0] == "scipy"]


def test_the_scipy_guard_skips_function_bodies():
    source = (SRC / "farey.py").read_text()
    assert "from scipy.special import" in source
    assert "numpy" in _import_time_modules(SRC / "farey.py")


def test_import_tropzeta_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, tropzeta; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


BENCH = SRC.parent.parent / "perfbench"
# functions that only tests read: none; a test keeps its reference values itself
TEST_ONLY: set = set()


def _unread_functions(sources):
    """The names of the functions and methods defined in sources (dunders
    aside) that appear nowhere else, as whole words, in sources and in the
    benchmark's modules.  One pass counts every word of the corpus and
    every name that follows a def."""
    texts = [path.read_text() for path in sources]
    corpus = "\n".join(texts + [path.read_text() for path in sorted(BENCH.glob("*.py"))])
    names = {node.name for text in texts for node in ast.walk(ast.parse(text))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not node.name.startswith("__")}
    words = Counter(re.findall(r"\w+", corpus))
    defined = Counter(re.findall(r"\bdef\s+(\w+)", corpus))
    return {name for name in names if words[name] <= defined[name]}


def test_every_function_has_a_reader():
    assert _unread_functions(sorted(SRC.glob("*.py"))) == TEST_ONLY


def test_the_reader_guard_sees_an_unread_function(tmp_path):
    # _nobody_reads_this appears only on its def line and inside a longer
    # word; _read_below is read by the call above its def
    extra = tmp_path / "extra.py"
    extra.write_text("def _nobody_reads_this():\n    return _read_below()\n\n\n"
                     "def _read_below():\n    return _nobody_reads_this_either\n\n\n"
                     "_nobody_reads_this_either = 0\n")
    assert _unread_functions(sorted(SRC.glob("*.py")) + [extra]) == {"_nobody_reads_this"}


def test_one_quadrature_rule():
    # the Gauss-Legendre table is built in one module and no private
    # adaptive rule sits beside it
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name, text in sources.items() if "leggauss" in text] == ["estimates"]
    assert not [name for name, text in sources.items() if re.search(r"\bdef _adaptive", text)]


# an extended-Euclid step: x0, x1 = x1, x0 - q * x1
_EUCLID_STEP = re.compile(r"(\w+), (\w+) = \2, \1 - \w+ \* \2")


def _lines_of(lines, node):
    """The whole source lines a node spans, sliced from its module's lines
    (ast.get_source_segment would rescan the module for every node)."""
    return "".join(lines[node.lineno - 1:node.end_lineno])


def _array_euclids():
    """(module, function) of every function that runs an extended-Euclid
    step on numpy arrays."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = _lines_of(lines, node)
                if _EUCLID_STEP.search(body) and "np." in body:
                    out.append((path.stem, node.name))
    return out


def test_one_euclid():
    # the Farey chunks (Hata's intervals among their rows) and the reduced
    # residues share one array extended Euclid; the scalar
    # geometry._ext_gcd is not one
    assert _array_euclids() == [("lattice", "euclid_inverses")]
    assert _EUCLID_STEP.search("        old_s, s = s, old_s - qt * s")


def _callers(name: str, text: str) -> set:
    """The innermost functions (or "<module>") of a source text that call
    name, plain or as an attribute, or decorate a function with it."""
    tree = ast.parse(text)
    owner, uses = {}, []
    # ast.walk goes breadth first, so an inner function's body is
    # reassigned to it after its outer function's; its decorators stay with
    # the function that runs them, the one it is defined in
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            uses += fn.decorator_list
            for node in (node for stmt in fn.body for node in ast.walk(stmt)):
                owner[node] = fn.name
    uses += [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {owner.get(node, "<module>") for node in uses
            if name in (getattr(node, "id", None), getattr(node, "attr", None))}


def test_euclid_has_two_callers():
    # Hata's intervals come from the Farey chunks, so the Euclid runs only
    # on each level's half and on the residues r <= b/2
    callers = {(path.stem, fn) for path in sorted(SRC.glob("*.py"))
               for fn in _callers("euclid_inverses", path.read_text())}
    assert callers == {("farey", "_chunk_numerators"), ("lattice", "reduced_residue_inverses")}
    assert _callers("f", "def g():\n    def h():\n        m.f()\n    f()\nf()") == {"g", "h", "<module>"}
    assert _callers("f", "def g():\n    @f\n    def h():\n        pass\n") == {"g"}


def test_no_per_element_python_map():
    # np.fromiter runs a Python call per element; the series powers and
    # quotients, the chart tangency solves and the user integrands of the
    # equiaffine lengths and the Fejer defect all run on arrays
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if "fromiter" in _lines_of(lines, node):
                found.add((path.stem, getattr(node, "name", "<module>")))
    assert found == set()
    probe = "x = 1\ny = np.fromiter(m, float)\n"
    assert "fromiter" in _lines_of(probe.splitlines(keepends=True), ast.parse(probe).body[1])
