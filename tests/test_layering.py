"""Package layering: each ``repro`` package imports only packages below it.

Every module under ``src/repro`` is parsed, and each of its imports —
module-level or inside a function — is checked against :data:`LAYERS`.
A lazy import is still a dependency, so it may not point upward either:
an upward import is how an import cycle starts.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Bottom to top.  A package may import any package listed before it.
LAYERS = (
    "sim",
    "traces",
    "obs",
    "app",
    "dataflow",
    "faults",
    "net",
    "monitor",
    "placement",
    "fleet",
    "engine",
    "experiments",
    "workload",
    "cli",
)
RANK = {name: rank for rank, name in enumerate(LAYERS)}

#: Packages that import no other ``repro`` package at all.
STANDALONE = {"obs"}


def package_of(path: Path) -> str:
    """The layer a source file belongs to (``cli.py`` is its own)."""
    parts = path.relative_to(SRC).parts
    return parts[0].removesuffix(".py")


def imported_packages(source: str, package: tuple[str, ...]) -> set[str]:
    """Every ``repro`` package ``source`` imports, at any depth.

    ``package`` is the dotted package the module sits in, as parts
    (``("repro", "placement")``); relative imports resolve against it.
    """
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join((*base, *filter(None, [node.module])))
            else:
                module = node.module or ""
            # ``from repro import fleet`` names a package per alias.
            if module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
            else:
                modules = [module]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def layered_sources() -> list[Path]:
    return sorted(
        path
        for path in SRC.rglob("*.py")
        if package_of(path) in RANK
    )


def test_every_package_has_a_layer():
    packages = {
        path.name.removesuffix(".py")
        for path in SRC.iterdir()
        if path.name != "__pycache__"
        and (path.is_dir() or path.suffix == ".py")
        and path.name not in ("__init__.py", "__main__.py")
    }
    assert packages == set(LAYERS)


@pytest.mark.parametrize(
    "path", layered_sources(), ids=lambda p: str(p.relative_to(SRC))
)
def test_imports_point_down(path):
    own = package_of(path)
    package = ("repro", *path.relative_to(SRC).parts[:-1])
    imported = imported_packages(path.read_text(), package) - {own}
    if own in STANDALONE:
        assert not imported, f"{own} imports {sorted(imported)}"
    upward = sorted(name for name in imported if RANK.get(name, -1) >= RANK[own])
    assert not upward, f"{own} imports {upward}, which sit above it"


def test_parser_sees_lazy_relative_and_package_imports():
    """The forms an upward import could hide behind are all seen."""
    source = (
        "def f():\n"
        "    import repro.fleet\n"
        "    from repro import engine\n"
        "    from ..workload import sink\n"
        "    from . import base\n"
    )
    assert imported_packages(source, ("repro", "placement")) == {
        "fleet", "engine", "workload", "placement"
    }
