"""Every module of the package uses each name it imports, the package exports them, and
importing it loads no process-pool machinery."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpforecast

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpforecast"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no code reads.

    A name read only inside a string annotation, such as one imported
    under ``TYPE_CHECKING``, counts as read.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


# __init__.py imports in order to re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_package_exports_exactly_the_names_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    sources = {alias.asname or alias.name: node.module
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    assert len(set(dpforecast.__all__)) == len(dpforecast.__all__)
    assert set(dpforecast.__all__) == set(sources)
    for name, module in sources.items():
        owner = importlib.import_module(f"dpforecast.{module}")
        assert getattr(dpforecast, name) is getattr(owner, name), name


def test_checker_finds_unused_and_counts_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n"
        "    from .data import MobilitySeries, WindowedDataset\n"
        "def f(s: 'MobilitySeries') -> Optional[int]:\n"
        "    return np.zeros(1)\n"
        "x: 'dict[str, int]' = {}\n"
    )
    assert unused_imports(source) == ["os", "os", "WindowedDataset"]


def test_import_leaves_multiprocessing_unloaded():
    # Only a multi-job run starts a process pool; any other process pays nothing for it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, dpforecast; print(sorted(set(sys.modules) & {'multiprocessing', 'socket'}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
