"""numpy is the package's only runtime dependency: every import in
``src/pau`` names numpy, the package itself or the standard library.
Apart from ``approx`` and ``gradcheck``, a module uses the others through
their public names only."""

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
