"""Every public name is needed: each name in a ``ustatcs`` module's
``__all__`` is referenced outside the module that defines it, by another
module, a test, a demo or the README.  The package ``__init__`` re-exports
names, which is not a use, so it is not searched."""

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
