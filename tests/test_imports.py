"""Every name a relpe module imports is used in it, and every module-level
private name is read by some relpe module: the unused-import and dead-code
checks a linter would make, with only the standard library's ``ast``."""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relpe"


def unused_imports(source: str) -> list[str]:
    """Names that import statements in ``source`` bind and no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from a import b as c, d\nc(numpy.linalg.norm)\ndef f(x: d): pass\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def private_names(source: str) -> set[str]:
    """Module-level ``_name`` functions, classes and constants that ``source`` defines."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names that ``source`` loads, reads as an attribute or imports by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:_name`` for each private name of ``sources`` that none of them reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted(f"{module}:{name}" for module, source in sources.items()
                  for name in private_names(source) - read)


def test_checker_finds_dead_private_names():
    sources = {"a.py": "_USED = 1\n_DEAD: int = 2\ndef _helper(): pass\nclass _Gone: pass\n"
                       "def __getattr__(name): return _USED\n",
               "b.py": "from a import _helper\n_helper()\n"}
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


# Exceptions left to the CLI's exit 2 (internal error). A non-finite value or
# gradient met in training reaches the CLI as TrainingDiverged (exit 1), and a
# non-finite value met by `relpe eval` as its user error (exit 1); in a
# gradient check the guards' errors exit 2.
INTERNAL_ERRORS = {"NonDeterministicLossError", "NonFiniteGradientError", "NonFiniteValueError"}


def exception_classes(sources: dict[str, str]) -> set[str]:
    """Classes of ``sources`` that derive, through any of them, from a builtin exception."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for source in sources.values() for node in ast.parse(source).body
             if isinstance(node, ast.ClassDef)}
    found = {name for name in vars(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    while more := {name for name, names in bases.items() if names & found} - found:
        found |= more
    return found & set(bases)


def exit_one_errors(cli_source: str) -> set[str]:
    """Names in the ``except`` clauses of ``main`` whose handler returns 1."""
    main = next(node for node in ast.parse(cli_source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    names = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and any(
                isinstance(n, ast.Return) and getattr(n.value, "value", None) == 1
                for n in ast.walk(handler)):
            names.update(n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name))
    return names


def test_checkers_find_exceptions_and_exit_one_clauses():
    sources = {"a.py": "class A(ValueError): pass\nclass B(A): pass\nclass C: pass\n",
               "b.py": "class D(Exception): pass\n"}
    assert exception_classes(sources) == {"A", "B", "D"}
    cli = ("def main():\n    try:\n        return 0\n    except (A, OSError):\n        return 1\n"
           "    except B:\n        return 2\n")
    assert exit_one_errors(cli) == {"A", "OSError"}


def test_every_named_error_has_an_exit_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    errors = exception_classes(sources)
    assert INTERNAL_ERRORS <= errors
    assert sorted(errors - exit_one_errors(sources["cli.py"]) - INTERNAL_ERRORS) == []
