"""The public surface: exported names resolve, README's quick start runs."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bellswap

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["bellswap"] + [
    f"bellswap.{info.name}"
    for info in pkgutil.iter_modules(bellswap.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # the quick start's last line prints the 1x1 census: empty
    assert capsys.readouterr().out == "0\n"
