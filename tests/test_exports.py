"""Every exported name resolves, so a deleted function cannot stay exported,
and neither can it stay named in the README's package layout."""

import dataclasses
import importlib
import os
import pkgutil
import re

import pytest

import maassperiods

MODULES = ["maassperiods"] + [
    f"maassperiods.{info.name}" for info in pkgutil.iter_modules(maassperiods.__path__)
]

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# the backticked words of the layout table that name no object of the package
NOT_API = {"P", "zeta", "alpha", "ladder", "ValueError", "numpy.polynomial"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def _layout_names() -> set:
    """The backticked Python names of the README's package-layout table, a
    call like `decompose_many(m)` by its name."""
    with open(README, encoding="utf-8") as handle:
        table = handle.read().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    spans = (re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span) for span in re.findall(r"`([^`]+)`", table))
    return {span.group(1) for span in spans if span}


def _resolves(name: str, roots: list) -> bool:
    """Whether the dotted name is an attribute chain from a module or class
    of the package; its last part may be a dataclass field."""
    *path, last = name.split(".")
    for obj in roots:
        for part in path:
            obj = getattr(obj, part, None)
        if obj is not None and (
            hasattr(obj, last) or dataclasses.is_dataclass(obj) and last in {f.name for f in dataclasses.fields(obj)}
        ):
            return True
    return False


def test_readme_layout_names_resolve():
    modules = [importlib.import_module(name) for name in MODULES]
    classes = [value for module in modules for value in vars(module).values() if isinstance(value, type)]
    names = _layout_names()
    assert len(names) >= 50
    stale = sorted(name for name in names - NOT_API if not _resolves(name, modules + classes))
    assert not stale, f"README's package layout names {stale}"
