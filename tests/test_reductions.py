"""The reductions whose bits reach a report are taken in `homsum.reductions`
alone: an AST scan of the other modules finds no matrix product, dot,
matmul or einsum of their own."""

import ast
from pathlib import Path

import homsum

PRODUCT_CALLS = {"dot", "vdot", "matmul", "einsum", "inner", "tensordot"}
# its two `@` products multiply integer permutation codes, not floats
EXEMPT = {"contractions._transpose_classes"}


def product_sites(source: str, module: str) -> list:
    """`module.function:line` of every `@`, `@=` or product call in the
    source, outside the exempt functions; a call of `reductions.dot` is the
    owner's own."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
            if scope in EXEMPT:
                return
        found = (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRODUCT_CALLS
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "reductions")
        )
        if found:
            sites.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return sites


def test_no_reduction_outside_the_owner():
    package = Path(homsum.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        if path.name != "reductions.py":
            sites += product_sites(path.read_text(encoding="utf-8"), path.stem)
    assert sites == []


def test_scan_finds_every_form():
    source = (
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    return np.dot(a, b) + a.dot(b) + np.vdot(a, b) + np.matmul(a, b)\n"
        "class K:\n"
        "    def g(self, a):\n"
        "        return np.einsum('i,i', a, a) + np.inner(a, a) + np.tensordot(a, a, 1)\n"
        "def _transpose_classes(p, q):\n"
        "    return p @ q\n"
        "def h(a):\n"
        "    return reductions.dot(a, a)\n"
    )
    assert product_sites(source, "contractions") == [
        "contractions.f:2", "contractions.f:3",
        *["contractions.f:4"] * 4,
        *["contractions.K.g:7"] * 3,
    ]
