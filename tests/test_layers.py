"""The package's import graph runs one way: a module imports homsum modules
only at its top, and only those that come before it in LAYERS."""

import ast
from pathlib import Path

import homsum

# kernels and their contractions at the bottom, the bounds and the sampler
# that read them above, the CLI on top
LAYERS = ("errors", "reductions", "kernels", "contractions", "bounds", "simulate", "moments",
          "diagnose", "reportio", "cli")
PACKAGE = Path(homsum.__file__).parent


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _homsum_imports(node) -> list:
    """(line, module) of every homsum import under `node`; a name that is not
    a module of the package (`from . import __version__`) is the package
    root, `__init__`."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [a.name for a in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            base = ".".join(filter(None, ["homsum" if sub.level else None, sub.module]))
            names = [f"{base}.{a.name}" for a in sub.names] if base == "homsum" else [base]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            module = rest.split(".")[0]
            if top == "homsum":
                found.append((sub.lineno,
                              module if (PACKAGE / f"{module}.py").exists() else "__init__"))
    return found


def test_every_module_has_a_layer():
    assert sorted(_trees()) == sorted(("__init__",) + LAYERS)


def test_no_homsum_import_inside_a_function():
    inside = [
        (name, line, module)
        for name, tree in _trees().items()
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line, module in _homsum_imports(func)
    ]
    assert inside == []


def test_each_module_imports_only_layers_below_it():
    rank = {name: i for i, name in enumerate(("__init__",) + LAYERS)}
    upward = [
        (name, line, module)
        for name, tree in _trees().items()
        for line, module in _homsum_imports(tree)
        if rank[module] >= rank[name]
    ]
    assert upward == []
