"""Each name has one import path: the module that defines it.

The packages ``qakb`` and ``qakb.nn`` re-export nothing, so a file takes
a package's submodules from it (``from qakb import cli``) and every other
name from the submodule that defines it (``from qakb.nn.layers import
GRUCell``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = {"qakb": ROOT / "src" / "qakb",
            "qakb.nn": ROOT / "src" / "qakb" / "nn"}
FILES = sorted(path for top in ("src", "tests", "tools")
               for path in (ROOT / top).rglob("*.py"))


def _is_module(package: Path, name: str) -> bool:
    return (package / f"{name}.py").is_file() or (package / name).is_dir()


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_package_init_imports_nothing(package):
    tree = ast.parse((PACKAGES[package] / "__init__.py").read_text())
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [], f"{package}/__init__.py imports on lines {imports}"


def test_names_come_from_their_defining_module():
    assert len(FILES) > 20
    found = []
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module in PACKAGES):
                found += [f"{path.relative_to(ROOT)}:{node.lineno}: "
                          f"{node.module}.{alias.name}"
                          for alias in node.names
                          if not _is_module(PACKAGES[node.module],
                                            alias.name)]
    assert found == [], "names taken through a package:\n" + "\n".join(found)
