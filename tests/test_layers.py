"""The package's import graph runs one way: a module imports homsum modules
only at its top, and only those that come before it in LAYERS; and every
public function has a user in the package or in the acceptance suite."""

import ast
import collections
from pathlib import Path

import homsum

# kernels and their contractions at the bottom, the bounds and the sampler
# that read them above, the CLI on top
LAYERS = ("errors", "reductions", "kernels", "contractions", "bounds", "simulate", "moments",
          "diagnose", "reportio", "cli")
PACKAGE = Path(homsum.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
# public names that something outside the package and the acceptance suite
# looks up by name: the benchmark tracer wraps DistributionSpec.sample
USED_BY_NAME = {"simulate.DistributionSpec.sample"}


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


def _public_defs(tree) -> list:
    """(qualified name, node) of each public top-level function and each
    public method of a public top-level class."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                     if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not sub.name.startswith("_")]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith("_"):
            defs.append((node.name, node))
    return defs


def _references(node) -> collections.Counter:
    """How often each name is read under `node`, as a name or an attribute."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_public_name_has_a_user():
    # a reference inside the function itself, a recursive call, is no user
    trees = _trees()
    refs = sum((_references(tree) for tree in trees.values()), collections.Counter())
    refs += _references(ast.parse(ACCEPTANCE.read_text(), str(ACCEPTANCE)))
    unused = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_defs(tree)
        if refs[node.name] == _references(node)[node.name]
        and f"{module}.{qualname}" not in USED_BY_NAME
    ]
    assert unused == []
