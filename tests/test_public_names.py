"""Every public name is needed.

* Each name in a ``ustatcs`` module's ``__all__`` is referenced outside the
  module that defines it, by another module, a test, a demo or the README.
  The package ``__init__`` re-exports names, which is not a use, so it is
  not searched.
* Each is read by product code, the package or a demo.  A name that only
  tests read is a test oracle, and lives in ``tests/`` (``oracles.py``,
  ``gram.py``)."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ustatcs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _corpus(exclude: Path) -> str:
    paths = [p for p in MODULES if p != exclude]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    paths.append(ROOT / "README.md")
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_is_used_elsewhere(path):
    module = importlib.import_module(f"ustatcs.{path.stem}")
    names = getattr(module, "__all__", [])
    corpus = _corpus(path)
    unused = [name for name in names if not re.search(rf"\b{re.escape(name)}\b", corpus)]
    assert unused == [], f"{path.name} exports names nothing else uses: {unused}"


# Names that product code need not call, each with its reason.
NO_PRODUCT_CALLER = {
    # the benchmark's final-center check imports it (bench/worker.py), and the
    # benchmark's tracer rebinds it; it moves to tests/ with ROADMAP item 1
    "batch_ustat",
}


def _loaded_names(paths) -> set[str]:
    """Every identifier that ``paths`` read: a loaded Name, or a loaded
    attribute (``module.name``).  An import is not a load."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_product_caller():
    """Every name in a module's ``__all__`` is read by the package or a demo:
    a name that only tests read is a test oracle, and lives in ``tests/``."""
    loaded = _loaded_names([*MODULES, *sorted((ROOT / "demos").glob("*.py"))])
    uncalled = sorted(
        name
        for path in MODULES
        for name in getattr(importlib.import_module(f"ustatcs.{path.stem}"), "__all__", [])
        if name not in loaded and name not in NO_PRODUCT_CALLER
    )
    assert uncalled == [], f"public names that no product code reads: {uncalled}"
