"""The package's public names: ``rpia.__all__`` and what ``rpia/__init__.py``
imports agree, so a removed or renamed export cannot leave a dangling name."""

import ast
from pathlib import Path

import rpia

INIT = Path(rpia.__file__)


def imported_names():
    """Every name that ``rpia/__init__.py`` imports from the package's modules."""
    tree = ast.parse(INIT.read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_exported_name_resolves():
    assert [name for name in rpia.__all__ if not hasattr(rpia, name)] == []


def test_every_imported_class_and_function_is_exported():
    assert sorted(imported_names() - set(rpia.__all__)) == []
    assert len(rpia.__all__) == len(set(rpia.__all__))
