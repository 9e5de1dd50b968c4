import ast
import importlib
import pkgutil
from pathlib import Path

import glda


def test_every_exported_name_resolves():
    # a name dropped from a module must not linger in its __all__ or in the
    # package's re-exports
    for info in pkgutil.iter_modules(glda.__path__):
        module = importlib.import_module(f"glda.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"glda.{info.name}.{name}"
    tree = ast.parse(Path(glda.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"glda.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"glda.{node.module}.{alias.name}"
