"""Every module under src/eegspeech uses each name it imports, only the
file-format modules open artifacts for writing, and only `blas` names an
OpenBLAS function.

Neither `compileall` nor the test suite notices an import that a deletion left
behind, so this parses each module with `ast` and fails on an imported name the
module never reads. Names listed in the module's `__all__` count as used
(re-exports), and `from __future__` imports are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eegspeech"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _read_names(tree) | _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom json import dumps, loads\n__all__ = ['loads']\nsys.exit(0)\n")
    used = _read_names(tree) | _exported_names(tree)
    assert {n for n in _imported_names(tree) if n not in used} == {"os", "dumps"}


def _names_atomic_open(tree: ast.Module) -> bool:
    """Whether the module imports `atomic_open` or reads it as an attribute."""
    return any((isinstance(node, ast.alias) and node.name == "atomic_open")
               or (isinstance(node, ast.Attribute) and node.attr == "atomic_open")
               for node in ast.walk(tree))


def test_only_the_file_formats_open_artifacts():
    """Artifact formats live in serialize (containers, JSON, write_csv tables)
    plus the input-format writers of config and dataio and evaluate's
    spectrogram figure; every other module writes through those."""
    users = {str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if _names_atomic_open(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))}
    assert users == {"config.py", "dataio.py", "evaluate.py"}


def test_finds_atomic_open_by_import_or_attribute():
    assert _names_atomic_open(ast.parse("from .serialize import atomic_open as a\n"))
    assert _names_atomic_open(ast.parse("from . import serialize\nserialize.atomic_open('x')\n"))
    assert not _names_atomic_open(ast.parse("from .serialize import write_csv\nwrite_csv('x', [], [])\n"))


def _openblas_symbols(tree: ast.Module) -> set[str]:
    """OpenBLAS function names the module spells out, in a string or as an attribute."""
    pattern = re.compile(r"\w*openblas_\w+")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(pattern.findall(node.value))
        elif isinstance(node, ast.Attribute):
            found.update(pattern.findall(node.attr))
    return found


def test_only_blas_names_openblas_functions():
    """The process-wide BLAS rule lives in one module: no other one looks up a setter of its own."""
    users = {str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if _openblas_symbols(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))}
    assert users == {"blas.py"}


def test_finds_an_openblas_function():
    tree = ast.parse('f = lib.openblas_set_num_threads_local\n"""OpenBLAS threads"""\n'
                     'names = ("scipy_openblas_set_num_threads64_",)\n')
    assert _openblas_symbols(tree) == {"openblas_set_num_threads_local", "scipy_openblas_set_num_threads64_"}


def _slow_powers(tree: ast.Module) -> list[int]:
    """Lines raising a non-constant base to a literal integer exponent other
    than 2 (`x ** 4`, `x **= 3`). numpy squares inline but sends any other such
    power to libm `pow`: on signed float64 data ~79 ns an element against
    ~0.7 ns for a multiply (2 vCPU Xeon, numpy 2.4)."""
    def slow(base, exponent) -> bool:
        return (not isinstance(base, ast.Constant) and isinstance(exponent, ast.Constant)
                and type(exponent.value) is int and exponent.value != 2)

    return sorted(node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and slow(node.left, node.right))
            or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow) and slow(node.target, node.value)))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_integer_power_through_pow(path):
    lines = _slow_powers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"{path.name}: integer power other than 2 at lines {lines}; multiply instead"


def test_finds_an_integer_power():
    tree = ast.parse("a = x ** 4\nx **= 3\nb = x ** 2\nc = 2 ** 24\nd = x ** 0.5\ne = x ** k\nf = (x + 1) ** 1\n")
    assert _slow_powers(tree) == [1, 2, 7]


def _forward_state(tree: ast.Module) -> list[tuple[str, int]]:
    """(attribute, line) for every `self.<attr>` other than `_cache` that a
    method named `forward` assigns: a layer's backward state lives only in the
    one record that backward takes and releases."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "forward"):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self" and sub.attr != "_cache"):
                        found.append((sub.attr, sub.lineno))
    return sorted(found, key=lambda item: item[1])


def test_layer_forwards_keep_state_only_in_the_cache():
    path = SRC / "nn" / "layers.py"
    found = _forward_state(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not found, f"layers.py: forward assigns self attributes other than _cache: {found}"


def test_finds_forward_state():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.w = 1\n"
        "    def forward(self, x):\n"
        "        self._cache = x\n"
        "        self._x = x\n"
        "        self._mask, y = x, x\n"
        "        self.n += 1\n"
        "        other.z = x\n"
        "        return y\n"
        "    def backward(self, g):\n"
        "        self._seen = g\n"
    )
    assert _forward_state(tree) == [("_x", 6), ("_mask", 7), ("n", 8)]
