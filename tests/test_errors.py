"""homsum raises two exception types, one per CLI exit code: every `raise`
in the package names ValidationError (exit 2) or CapacityError (exit 3),
and errors.py defines no other exception class."""

import ast
import importlib
import inspect
from pathlib import Path

import homsum
from homsum import errors

RAISED = {"ValidationError", "CapacityError"}
# the parser's usage error, which cli.main turns into exit 1
CLI_RAISED = RAISED | {"_UsageError"}


def raise_sites(source: str, module: str) -> list:
    """`module.function:line` of every `raise` in the source whose exception
    is not one of the module's allowed classes; a bare re-raise names none."""
    allowed = CLI_RAISED if module == "cli" else RAISED
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name not in allowed:
                sites.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return sites


def test_every_raise_names_one_of_the_two_types():
    package = Path(homsum.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        sites += raise_sites(path.read_text(encoding="utf-8"), path.stem)
    assert sites == []


def test_scan_finds_every_form():
    source = (
        "def f(x):\n"
        "    try:\n"
        "        g(x)\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise ValueError(x)\n"
        "class K:\n"
        "    def g(self, exc):\n"
        "        raise exc(self)\n"
        "        raise errors.ParameterOutOfRange\n"
        "        raise _UsageError('u')\n"
        "        raise ValidationError('v') from None\n"
        "        raise errors.CapacityError('c')\n"
    )
    assert raise_sites(source, "kernels") == [
        "kernels.f:6", "kernels.K.g:9", "kernels.K.g:10", "kernels.K.g:11",
    ]
    assert raise_sites(source, "cli") == ["cli.f:6", "cli.K.g:9", "cli.K.g:10"]


def test_two_exception_classes():
    package = Path(homsum.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"homsum.{path.stem}")
        found |= {
            f"{path.stem}.{name}" for name, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        }
    assert found == {"errors.ValidationError", "errors.CapacityError", "cli._UsageError"}
    assert errors.ValidationError.__bases__ == errors.CapacityError.__bases__ == (Exception,)
