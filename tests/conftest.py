import concurrent.futures
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from homsum import kernels, simulate


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test after which a worker process is still running; a leaked
    pool would otherwise show only when a later command is measured."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join(timeout=10)
    if leaked:
        pytest.fail(f"worker processes left running: {leaked}")


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the sampling process pool by one that runs each submitted
    span in this process; returns the max_workers of every pool built."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(simulate.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.fixture
def p2():
    return kernels.single_pair()


@pytest.fixture
def c3():
    return kernels.constant_kernel(3)


@pytest.fixture
def d4():
    return kernels.disjoint_pairs(4)


@pytest.fixture
def w25():
    return kernels.walsh_kernel(2, 5)


def random_kernels(rng, count, d_range=(1, 4), n_max=8, sigma2=None):
    """Seeded stream of random sparse kernels for the property suites."""
    out = []
    for _ in range(count):
        d = int(rng.integers(d_range[0], d_range[1] + 1))
        n = int(rng.integers(d, n_max + 1))
        total = math.comb(n, d)
        s2 = sigma2 if sigma2 is not None else float(rng.uniform(0.25, 4.0))
        out.append(
            kernels.random_sparse_kernel(
                d,
                n,
                seed=int(rng.integers(0, 2**31)),
                entry_count=int(rng.integers(1, total + 1)),
                sigma2=s2,
            )
        )
    return out


def row_sums(f, X) -> np.ndarray:
    """Q_d of each row of the (n, N) batch X, by one `kernels.RowSums` fed
    the whole batch at once."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X))
    kernels.RowSums(f, len(X)).add(X, 0, out)
    return out


def traced_memory(fn) -> tuple:
    """(bytes still held, peak bytes) that tracemalloc saw allocated during
    one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
