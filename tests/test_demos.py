"""The demo scripts still import only names the package provides.

The demos are read, not run: each ``from osctrack... import name`` must
resolve, so removing a name a demo uses fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(path: Path):
    """(module, name) for each name imported from osctrack; name None for a
    plain ``import osctrack...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "osctrack":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "osctrack":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) == 10


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    imports = list(_package_imports(demo))
    assert imports, f"{demo.name} imports nothing from osctrack"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module}.{name} is gone"
