"""What other code reaches in ``planecones`` by name, and imports nothing uses.

The traced benchmark (``perfbench/tracer.py``) wraps layer functions by
their module and name, counts ``QuadraticNumber.__init__`` by assigning a
wrapper to the class, and reads ``delta_curve``'s cache statistics.  Its
``LAYERS`` table is read here from the file, without importing or editing
it, so a deletion or rename that would break a traced run fails tier-1
first.

Every module of ``src/planecones`` but the package's ``__init__`` (whose
imports are the public surface) must use each name it imports, and each
private name a module defines at its top level (a ``_``-prefixed function,
class or assignment) must be read by some module of the package, or by the
constructor source ``record.py`` compiles; the checks read the source with
``ast`` alone.  A record is built past its checks only
by the trusted constructor ``record.py`` makes, so no other module reads a
record's slot setters (``_setters``).  A value of the wrong type is refused
only by ``qarith``'s gates, so no other function raises ``DomainError`` under
a type test of one of its arguments, but for the checks of a shape: an LR
word, a list of digits and a JSON object.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from planecones import exceptional, record
from planecones.qarith import QuadraticNumber

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planecones"


def traced_layers() -> dict:
    """The ``LAYERS`` literal of ``perfbench/tracer.py``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no LAYERS")


TRACED = [f"{module}.{name}" for module, names in traced_layers().items() for name in names]


@pytest.mark.parametrize("span", TRACED)
def test_traced_name_exists(span):
    module, name = span.split(".")
    assert callable(getattr(importlib.import_module(f"planecones.{module}"), name, None)), span


def test_traced_hooks_exist():
    # the tracer replaces the constructor on the class and reads the boundary cache
    assert inspect.isfunction(vars(QuadraticNumber)["__init__"])
    assert callable(getattr(exceptional.delta_curve, "cache_info", None))


def unused_imports(source: str) -> list[str]:
    """Each name ``source`` imports at any depth and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom enum import Enum\nfrom x import y as z\nmath.pi\n"
    assert unused_imports(source) == ["os", "Enum", "z"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level name of ``sources`` that none of them reads.

    A name is read where it is loaded as a variable or an attribute, or imported by name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}.{name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def test_dead_private_names_are_found():
    sources = {"a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
                    "_A = _B = 1\n(_c, _d) = 1, 2\n__all__ = []\n_B\n",
               "b": "from .a import _used\n_used()\nx._c\nx._A = 2\n"}
    assert dead_private_names(sources) == ["a._dead", "a._Gone", "a._A", "a._d"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    # the trusted constructors run source that record.py compiles, once per field count
    counts = {len(cls.__slots__) for cls in record.Record.__subclasses__()}
    sources.update({f"record._source({n})": record._source(n) for n in sorted(counts)})
    assert dead_private_names(sources) == []
    planted = {**sources, "record": sources["record"] + "_planted = 1\n"}
    assert dead_private_names(planted) == ["record._planted"]


def setter_readers(sources: dict[str, str]) -> list[str]:
    """Each module of ``sources`` but ``record`` that reads ``_setters``, by name or attribute."""
    readers = []
    for module, source in sources.items():
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        if module != "record" and "_setters" in names:
            readers.append(module)
    return readers


def test_setter_readers_are_found():
    sources = {"record": "cls._setters = ()\n", "a": "put, = X._setters\n",
               "b": "from .record import _setters\n_setters\n", "c": "X._trusted(1, 2)\n"}
    assert setter_readers(sources) == ["a", "b"]


def test_only_record_reads_the_setters():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert setter_readers(sources) == []


GATES = {"qarith.exact_int", "qarith.exact_rational", "qarith.exact_type"}
# each tests the type of an argument as part of its shape
SHAPE_CHECKS = {"cfrac._check_word", "cfrac._digits", "chern.character_from_json"}


def _tests_a_type(test: ast.expr, arguments: set[str]) -> bool:
    """Whether ``test`` holds ``type(a) is not``, ``type(a) not in`` or ``not isinstance(a, ...)``.

    ``a`` is one of ``arguments``.
    """
    def called_on_argument(node, function):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == function and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id in arguments)

    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and called_on_argument(node.left, "type") and any(
                isinstance(op, (ast.IsNot, ast.NotIn)) for op in node.ops):
            return True
        if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
                and called_on_argument(node.operand, "isinstance")):
            return True
    return False


def _raises_domain_error(body: list[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "DomainError"
               for statement in body for node in ast.walk(statement))


def scattered_type_checks(sources: dict[str, str]) -> list[str]:
    """``module.function`` for each function of ``sources`` that refuses an argument by its type.

    That is an ``if`` whose test is a type test of an argument and whose body
    raises ``DomainError``.
    """
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef):
                continue
            arguments = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
            if any(isinstance(branch, ast.If) and _tests_a_type(branch.test, arguments)
                   and _raises_domain_error(branch.body) for branch in ast.walk(node)):
                found.append(f"{module}.{node.name}")
    return found


def test_scattered_type_checks_are_found():
    sources = {"a": "def by_type(x):\n    if type(x) is not int or x < 0:\n"
                    "        raise DomainError('x')\n"
                    "def by_membership(x):\n    if type(x) not in (int, str):\n"
                    "        raise DomainError('x')\n"
                    "def by_isinstance(self, y=1):\n    if y and not isinstance(y, str):\n"
                    "        raise DomainError('y')\n",
               "b": "def of_a_local(x):\n    y = x[0]\n    if type(y) is not int:\n"
                    "        raise DomainError('y')\n"
                    "def other_error(x):\n    if not isinstance(x, int):\n"
                    "        raise TypeError('x')\n"
                    "def accepting(x):\n    if type(x) is int:\n        return x\n"
                    "    raise DomainError('x')\n"}
    assert scattered_type_checks(sources) == ["a.by_type", "a.by_membership", "a.by_isinstance"]


def test_wrong_types_are_refused_by_the_gates_alone():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    # the gates themselves are found, so the scan reads the way they refuse
    assert set(scattered_type_checks(sources)) - SHAPE_CHECKS == GATES
