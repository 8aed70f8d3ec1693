"""The reductions whose bits reach a report are taken in `homsum.reductions`
alone: an AST scan of the other modules finds no matrix product, dot,
matmul or einsum of their own.  `streamed_sum` gives np.sum's bits however
its values are cut into chunks."""

import ast
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np

import homsum
from homsum import reductions
from oracles import pairwise_leaf_sizes

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


# run lengths around numpy's 8-value unroll, its 128-value block and the
# 2^16-value leaves of streamed_sum, a contraction of 40^4 values, and a run
# whose halves are cut down to multiples of 8 at several levels
STREAMED_SIZES = (0, 1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5,
                  40**4, 10**6 + 3)


def streamed_sum_chunkings(x: np.ndarray, rng) -> list:
    """(name, chunks) ways of cutting x: whole, with empty chunks between
    pieces, with one-value chunks on both sides of every leaf edge, and at
    random points."""
    n = x.size
    edges = np.cumsum(pairwise_leaf_sizes(n, 2**16))[:-1]
    at_edges = np.unique(np.clip(np.concatenate([edges - 1, edges, edges + 1]), 0, n))
    return [
        ("one chunk", [x]),
        ("empty chunks", [x[:0], *np.array_split(x, 3)[:2], x[:0], x[:0],
                          *np.array_split(x, 3)[2:], x[:0]]),
        ("ones at leaf edges", np.split(x, at_edges)),
        ("random cuts", np.split(x, np.sort(rng.integers(0, n + 1, 25)))),
    ]


def assert_streamed_sum_matches_np_sum():
    rng = np.random.default_rng(131)
    told_apart = 0  # draws on which adding the leaves in a row misses np.sum
    for n in STREAMED_SIZES:
        for _ in range(3):
            x = 10.0 ** rng.uniform(-8, 8, n)
            want = float(np.sum(x)).hex()
            for name, chunks in streamed_sum_chunkings(x, rng):
                assert sum(c.size for c in chunks) == n
                assert reductions.streamed_sum(iter(chunks), n).hex() == want, (n, name)
            leaves = np.split(x, np.cumsum(pairwise_leaf_sizes(n, 2**16))[:-1])
            told_apart += (0.0 + sum(float(leaf.sum()) for leaf in leaves)).hex() != want
    # the values tell the order of additions apart, so the tree is tested
    assert told_apart > 0


class TestStreamedSum:
    def test_matches_np_sum_bitwise(self):
        assert_streamed_sum_matches_np_sum()

    def test_leaf_sizes_follow_numpys_split(self):
        assert pairwise_leaf_sizes(0, 2**16) == [0]
        assert pairwise_leaf_sizes(2**16 + 1, 2**16) == [32768, 32769]
        assert pairwise_leaf_sizes(300, 128) == [72, 72, 72, 84]

    def test_holds_no_chunk_after_the_call(self):
        # with the collector off, a reference cycle would keep the last chunk
        refs = []

        def chunks():
            x = np.ones(3 * 2**16 + 5)
            refs.append(weakref.ref(x))
            yield x[:100]
            yield x[100:]

        gc.disable()
        try:
            assert reductions.streamed_sum(chunks(), 3 * 2**16 + 5) == 3 * 2**16 + 5
            assert refs[0]() is None
        finally:
            gc.enable()

    def test_matches_np_sum_at_a_lower_simd_level(self):
        # numpy reads NPY_DISABLE_CPU_FEATURES when it loads, hence a child
        here = Path(__file__).resolve().parent
        src = str(Path(homsum.__file__).resolve().parents[1])
        path = [src, str(here), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = ("from numpy._core._multiarray_umath import __cpu_features__ as on\n"
                "assert not on['X86_V4']\n"
                "import test_reductions as t; t.assert_streamed_sum_matches_np_sum()")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
