"""Seeded Monte Carlo sampling of homogeneous sums and empirical distances.

Reproducibility contract: draw j of a run with master seed s reads from its
own counter-based stream, Philox keyed by (s, j).  A worker keeps one
Philox for its share of blocks and fills their rows in slices of about
_FILL_VALUES values that reuse one buffer: per draw one state reset to
that stream's start and one raw fill into the draw's row of the slice
(normals, exponentials, uniforms on [0, 1) or, for Rademacher, raw 64-bit
words); then each law's transform runs once over the slice and gives
exactly the values the law's direct numpy call would.  Sample values
therefore depend only on (seed, draw index), never on batching, slices or
worker count.

A sum's last bits depend on which rows BLAS reduces with it, that is on
the evaluation unit it falls in, counted from the start of its block.
Each kernel's `kernels.RowSums` owns that rule: the sampler hands it every
slice of a block, it copies the slice's columns or products (exact
elementwise) into its unit buffer at their rows' offsets, and it reduces a
unit once the unit's last row is in.  So every BLAS call sees exactly the
rows it sees when the block is fed to one `RowSums.add` whole, while a
block needs one slice and one unit buffer per kernel; a worker builds each
evaluator, dense form included, once for its share of blocks.  Sums can
depend on the batch size, which sets the blocks, so every manifest that
sets it records it.  They never depend on the worker count: blocks are the
same for any worker count, are written into a preallocated array at fixed
offsets, and all reductions run over that array in index order.

Worker processes come from one pool per `worker_pool()` scope, which the
CLI opens around each command: the pool starts on the first call that
needs more than one worker, grows only when a later call needs more
processes, and is shut down when the scope closes.  A call outside any
scope opens and closes a pool of its own.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import multiprocessing
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import kernels
from .errors import CapacityError, ValidationError, check_degrees
from .kernels import SymmetricKernel

LAW_TAGS = ("gaussian", "rademacher", "uniform", "shifted_exponential", "two_point")

_SQRT3 = math.sqrt(3.0)
_MASK64 = (1 << 64) - 1
_FINISH_VALUES = 1 << 15
# values filled and finished at once (2 MB): a wide block is filled in slices
# of whole rows this size
_FILL_VALUES = 1 << 18


def _row_chunks(X: np.ndarray):
    """Views of X in chunks of whole rows holding about _FINISH_VALUES values,
    so a finishing step's temporaries stay in cache however large the block."""
    step = max(1, _FINISH_VALUES // max(1, X.shape[1]))
    return (X[lo : lo + step] for lo in range(0, X.shape[0], step))


@dataclass(frozen=True)
class DistributionSpec:
    """Centered unit-variance input law with analytic moment metadata."""

    tag: str
    abs_moment3: float
    moment3: float
    moment4: float
    p: float | None = None  # two_point parameter

    def filler(self, gen: Generator):
        """row -> None, writing one draw's raw values into a float64 row with
        a single call on `gen`; `finish` turns them into law values."""
        if self.tag == "gaussian":
            return lambda row: gen.standard_normal(out=row)
        if self.tag == "shifted_exponential":
            return lambda row: gen.standard_exponential(out=row)
        if self.tag in ("uniform", "two_point"):
            return lambda row: gen.random(out=row)
        if self.tag == "rademacher":
            # ceil(n/2) raw 64-bit words in the row's first slots; `finish`
            # reads value 2i from bit 31 and value 2i+1 from bit 63 of word i,
            # the bits integers(0, 2) takes through the low-then-high 32-bit split
            raw = gen.bit_generator.random_raw

            def fill(row):
                words = (row.size + 1) // 2
                row.view(np.uint64)[:words] = raw(words)

            return fill
        raise ValidationError(f"unknown law tag {self.tag!r}")

    def finish(self, X: np.ndarray) -> None:
        """Turn rows of raw values from `filler` into law values, in place."""
        if self.tag == "shifted_exponential":
            X -= 1.0
        elif self.tag == "uniform":
            # the low + (high - low) * u of Generator.uniform(-sqrt3, sqrt3)
            X *= 2.0 * _SQRT3
            X += -_SQRT3
        elif self.tag == "two_point":
            hi = math.sqrt((1.0 - self.p) / self.p)
            lo = -math.sqrt(self.p / (1.0 - self.p))
            for rows in _row_chunks(X):
                rows[...] = np.where(rows < self.p, hi, lo)
        elif self.tag == "rademacher":
            for rows in _row_chunks(X):
                words = rows.view(np.uint64)[:, : (rows.shape[1] + 1) // 2].copy()
                rows[:, 0::2] = (words >> 31) & 1
                rows[:, 1::2] = (words >> 63)[:, : rows.shape[1] // 2]
                rows *= 2.0
                rows -= 1.0

    def sample(self, gen: Generator, size: int) -> np.ndarray:
        """`size` values of the law from `gen`, by the same fill and finish
        the block sampler runs."""
        X = np.empty((1, size))
        self.filler(gen)(X[0])
        self.finish(X)
        return X[0]

    @property
    def name(self) -> str:
        return f"two_point:{self.p!r}" if self.tag == "two_point" else self.tag


def get_law(name: str) -> DistributionSpec:
    """Law by name; two_point takes its atom probability as 'two_point:p'."""
    if name.startswith("two_point"):
        try:
            p = float(name.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ValidationError(
                f"two_point law needs a probability, e.g. 'two_point:0.3', got {name!r}"
            ) from None
        if not 0.0 < p < 1.0:
            raise ValidationError(f"two_point probability must be in (0,1), got {p}")
        q = 1.0 - p
        return DistributionSpec(
            tag="two_point",
            abs_moment3=(q * q + p * p) / math.sqrt(p * q),
            moment3=(1.0 - 2.0 * p) / math.sqrt(p * q),
            moment4=(q ** 3 + p ** 3) / (p * q),
            p=p,
        )
    table = {
        "gaussian": DistributionSpec("gaussian", 2.0 * math.sqrt(2.0 / math.pi), 0.0, 3.0),
        "rademacher": DistributionSpec("rademacher", 1.0, 0.0, 1.0),
        "uniform": DistributionSpec("uniform", 3.0 * _SQRT3 / 4.0, 0.0, 1.8),
        "shifted_exponential": DistributionSpec(
            "shifted_exponential", 12.0 / math.e - 2.0, 2.0, 9.0
        ),
    }
    if name not in table:
        raise ValidationError(f"unknown law {name!r}; know {LAW_TAGS}")
    return table[name]


@dataclass(frozen=True)
class SampleConfig:
    n: int
    seed: int
    workers: int = 1
    batch_size: int = 1024

    def __post_init__(self):
        # n >= 2: the standard errors divide by n - 1; Philox keys on 64 seed bits
        if self.n < 2 or not 0 <= self.seed <= _MASK64 or self.workers < 1 or self.batch_size < 1:
            raise ValidationError(
                f"bad sample config {self}: need n >= 2, 0 <= seed < 2**64, workers >= 1, "
                "batch_size >= 1"
            )


@dataclass
class SampleSummary:
    """Empirical moments with standard errors plus the retained sample."""

    n: int
    law: str
    seed: int
    samples: np.ndarray
    moments: np.ndarray = field(init=False)  # E[Q^k], k = 1..4
    standard_errors: np.ndarray = field(init=False)
    _sorted: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        powers = np.vstack([self.samples ** k for k in range(1, 5)])
        self.moments = powers.mean(axis=1)
        self.standard_errors = powers.std(axis=1, ddof=1) / math.sqrt(self.n)

    def moment(self, k: int) -> float:
        return float(self.moments[k - 1])

    def standard_error(self, k: int) -> float:
        return float(self.standard_errors[k - 1])

    def sorted_samples(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self.samples)
        return self._sorted


def _compute_blocks(kernel_list, dist, seed, blocks, n_inputs):
    """(lo, sums) of each block (lo, hi) of one worker's share: the
    (hi - lo, len(kernel_list)) sums of draws lo..hi-1, one column per
    kernel's `kernels.RowSums`, filled in slices of whole rows holding about
    _FILL_VALUES values.  The evaluators, dense forms included, the slice
    buffer and the Philox state are built once for the share."""
    batch = max(hi - lo for lo, hi in blocks)
    evaluators = [kernels.RowSums(f, batch) for f in kernel_list]
    step = min(batch, max(1, _FILL_VALUES // n_inputs))
    X = np.empty((step, n_inputs))
    bit_gen = Philox(key=(seed & _MASK64) << 64)
    fill = dist.filler(Generator(bit_gen))
    # The state Philox(key=(seed << 64) | j) starts in is this one with key
    # [j, seed]: counter 0, empty buffers.  The setter reads list fields far
    # faster than the array fields the getter returns.
    state = bit_gen.state
    state["state"] = {name: v.tolist() for name, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    results = []
    for lo, hi in blocks:
        rows = hi - lo
        block = np.empty((rows, len(kernel_list)))
        for start in range(0, rows, step):
            part = X[: min(step, rows - start)]
            for j, row in zip(range(lo + start, hi), part):
                key[0] = j & _MASK64
                bit_gen.state = state
                fill(row)
            dist.finish(part)
            for col, sums in enumerate(evaluators):
                sums.add(part, start, block[:, col])
        results.append((lo, block))
    return results


# [pool, size] of the innermost `worker_pool()` scope; None outside every scope
_scope = None


@contextlib.contextmanager
def worker_pool():
    """Scope within which every sampling call shares one worker pool: started
    on the first call that needs more than one worker, restarted only to
    grow, and shut down before the scope exits, however it exits."""
    global _scope
    outer = _scope
    scope = _scope = [None, 0]
    try:
        yield
    finally:
        _scope = outer
        if scope[0] is not None:
            scope[0].shutdown(wait=True, cancel_futures=True)


def _sample_matrix(kernel_list, dist: DistributionSpec, config: SampleConfig) -> np.ndarray:
    """(n, m) matrix of sums.  Every block is computed identically whatever
    the worker count (per-draw streams, per-block evaluation), and blocks
    land at fixed offsets, so the result is bitwise worker-independent.  At
    most one process per CPU and per block is busy."""
    n_inputs = max(f.N for f in kernel_list)
    size = config.n * len(kernel_list) * 8
    if size > np.iinfo(np.intp).max:
        raise CapacityError(f"{config.n} x {len(kernel_list)} sums need {size} bytes, "
                            f"past numpy's largest array of {np.iinfo(np.intp).max}")
    out = np.empty((config.n, len(kernel_list)))
    blocks = [
        (lo, min(lo + config.batch_size, config.n))
        for lo in range(0, config.n, config.batch_size)
    ]
    workers = min(config.workers, os.cpu_count() or 1, len(blocks))
    if workers == 1:
        results = [_compute_blocks(kernel_list, dist, config.seed, blocks, n_inputs)]
    else:
        # a call outside any scope opens and closes a pool of its own
        with worker_pool() if _scope is None else contextlib.nullcontext():
            pool, size = _scope
            if workers > size:
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
                method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers, mp_context=multiprocessing.get_context(method)
                )
                _scope[:] = [pool, workers]
            futures = [
                pool.submit(_compute_blocks, kernel_list, dist, config.seed, blocks[w::workers], n_inputs)
                for w in range(workers)
            ]
            results = [fut.result() for fut in futures]
    for share in results:
        for lo, block in share:
            out[lo : lo + block.shape[0]] = block
    return out


def sample_sums(f: SymmetricKernel, dist: DistributionSpec, config: SampleConfig) -> SampleSummary:
    """n evaluations of the sum on fresh i.i.d. input vectors."""
    q = _sample_matrix([f], dist, config)[:, 0]
    return SampleSummary(n=config.n, law=dist.name, seed=config.seed, samples=q)


def sample_vector_sums(kernel_list, dist: DistributionSpec, config: SampleConfig) -> np.ndarray:
    """(n, m) joint samples, column j the sums of kernel j: every kernel is
    evaluated on the same input draw (smaller kernels read a prefix of the
    shared vector)."""
    if not kernel_list:
        raise ValidationError("need at least one kernel")
    return _sample_matrix(kernel_list, dist, config)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def ks_statistic(sorted_samples: np.ndarray, target_cdf_values: np.ndarray) -> float:
    """One-sample Kolmogorov statistic from sorted samples and the target CDF
    evaluated at them: max over jump points of both one-sided gaps."""
    n = sorted_samples.size
    grid = np.arange(1, n + 1) / n
    d_plus = float((grid - target_cdf_values).max())
    d_minus = float((target_cdf_values - grid + 1.0 / n).max())
    return max(d_plus, d_minus, 0.0)


def ks_normal(summary: SampleSummary) -> float:
    from scipy.special import ndtr  # on first use: kernel commands never load scipy
    s = summary.sorted_samples()
    return ks_statistic(s, ndtr(s))


def centered_chi2_cdf(x, nu: int):
    """P(Z <= x) for Z = (chi-square with nu degrees) - nu; zero at and
    below -nu; regularized lower incomplete gamma elsewhere."""
    from scipy.special import gammainc  # on first use, as in ks_normal
    check_degrees(nu)
    x = np.asarray(x, dtype=np.float64)
    shifted = np.maximum(x + nu, 0.0)
    out = gammainc(nu / 2.0, shifted / 2.0)
    return out if out.ndim else float(out)


def ks_chi2(summary: SampleSummary, nu: int) -> float:
    s = summary.sorted_samples()
    return ks_statistic(s, centered_chi2_cdf(s, nu))


def dkw_epsilon(n: int, delta: float = 0.01) -> float:
    """Two-sided DKW band half-width: empirical CDF is within this of the
    truth with probability >= 1 - delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


# ---------------------------------------------------------------------------
# Raw sample dump (flat binary, little endian)
# ---------------------------------------------------------------------------

SAMPLE_MAGIC = b"HSUMRAW1"


def write_samples(path, samples: np.ndarray) -> None:
    """The magic, a little-endian u64 count, then that many `<f8` values:
    `np.fromfile(path, "<f8", offset=16)` reads them back."""
    data = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(SAMPLE_MAGIC)
        fh.write(struct.pack("<Q", data.size))
        fh.write(data.tobytes())
