"""numpy is the package's only runtime dependency: every import in
``src/pau`` names numpy, the package itself or the standard library.
Apart from ``approx`` and ``gradcheck``, a module uses the others through
their public names only, every private top-level name has a caller in
``src/pau``, every public constant is read in ``src/pau`` or ``perfbench``,
and every imported name is used."""

import ast
import sys
from pathlib import Path

ALLOWED = {"numpy", "pau"} | set(sys.stdlib_module_names)
SOURCE = Path(__file__).parents[1] / "src" / "pau"


def _imports(path):
    """(line, top-level module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_only_numpy_and_the_standard_library():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{line} imports {name}"
             for path in modules for line, name in _imports(path) if name not in ALLOWED]
    assert not found, found


def test_a_third_party_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom . import x\nimport scipy.linalg\n"
                    "def f():\n    from numpy import lib\n    import torch\n")
    assert [name for _, name in _imports(path) if name not in ALLOWED] == ["scipy", "torch"]


def test_network_imports_no_private_name():
    # approx and gradcheck share the rational kernel's private parts by
    # design; every other module, network first among them, keeps to what
    # the others publish
    found = [f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
             for path in sorted(SOURCE.glob("*.py"))
             if path.stem not in ("approx", "gradcheck")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").partition(".")[0] == "pau")
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def _defines(node):
    """The names a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _reads(node):
    """The names that ``node`` reads, calls, imports or takes as attributes."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def _unused_private_names(paths):
    """``file: name`` of each private top-level name of ``paths`` that no
    other top-level statement of theirs reads, calls or imports."""
    statements = [(path.name, node) for path in paths
                  for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body]
    used = [_reads(node) for _, node in statements]
    return [f"{file}: {name}" for i, (file, node) in enumerate(statements)
            for name in _defines(node) if name.startswith("_") and not name.startswith("__")
            and not any(name in u for j, u in enumerate(used) if j != i)]


def test_every_private_name_has_a_source_caller():
    # a helper kept in the source only for its tests is dead code
    found = _unused_private_names(sorted(SOURCE.glob("*.py")))
    assert not found, found


def test_a_private_name_without_a_caller_is_found(tmp_path):
    (tmp_path / "a.py").write_text("_LIMIT = 3\n_SIZE: int = 2\n\n"
                                   "def _helper(n):\n    return _helper(n - 1)\n\n"
                                   "class _Base:\n    pass\n\n"
                                   "def public():\n    return _LIMIT\n")
    (tmp_path / "b.py").write_text("from a import _Base\n__all__ = []\n")
    assert _unused_private_names(sorted(tmp_path.glob("*.py"))) == ["a.py: _SIZE",
                                                                  "a.py: _helper"]


def _unread_constants(paths, readers):
    """``file: NAME`` of each public upper-case top-level name that ``paths``
    assign and no file of ``readers`` reads, calls or imports."""
    read = set().union(*(_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                         for path in readers))
    return [f"{path.name}: {name}" for path in paths
            for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for name in _defines(node)
            if name.isupper() and not name.startswith("_") and name not in read]


def test_every_constant_is_read():
    # a knob whose code is gone leaves its constant behind
    sources = sorted(SOURCE.glob("*.py"))
    readers = sources + sorted((SOURCE.parents[1] / "perfbench").glob("*.py"))
    found = _unread_constants(sources, readers)
    assert not found, found


def test_an_unread_constant_is_found(tmp_path):
    (tmp_path / "a.py").write_text("LIMIT = 3\nSIZE: int = 2\nLO, HI = 0, 1\nWIDTH = 7\n"
                                   "_PRIVATE = 4\nMixed = 5\n\n"
                                   "def f():\n    LOCAL = 6\n    return LIMIT, LOCAL\n")
    (tmp_path / "b.py").write_text("import a\nfrom a import WIDTH\nprint(a.HI, WIDTH)\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unread_constants(paths, paths) == ["a.py: SIZE", "a.py: LO"]


# gradcheck re-exports the scalar kernels that perfbench wraps by name
# (ROADMAP item 4)
REEXPORTS = {"gradcheck.py: eval_pau", "gradcheck.py: grad_pau"}


def _unused_imports(paths):
    """``file: name`` of each name that an import in ``paths`` binds and its
    own file never reads, except ``__future__`` features and the names that
    an ``__init__.py`` imports from its package's modules (its re-exports)."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "__future__" or node.level and path.name == "__init__.py"):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ((a.asname or a.name).partition(".")[0] for a in node.names)
                found += [f"{path.name}: {name}" for name in names if name not in read]
    return found


def test_every_imported_name_is_used():
    found = [name for name in _unused_imports(sorted(SOURCE.glob("*.py")))
             if name not in REEXPORTS]
    assert not found, found


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\nimport os.path\nimport threading\n"
        "from collections import deque, namedtuple as nt\n\n"
        "def f():\n    import math\n    return os.path.join(nt()), math\n")
    (tmp_path / "__init__.py").write_text("import sys\nfrom .mod import f\n")
    assert _unused_imports(sorted(tmp_path.glob("*.py"))) == [
        "__init__.py: sys", "mod.py: threading", "mod.py: deque"]
