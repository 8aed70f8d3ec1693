"""Independent numeric oracles used by the tests.

These are built from textbook representations, not from the library's own
code paths, so they can certify library output:

* product_normal_cdf: the law of a product of two independent standard
  normals, via its Bessel-K density.
* constant_kernel_q_cdf: the exact law of the order-2 constant kernel's
  sum under Gaussian inputs, via the spectral decomposition of the
  quadratic form (one positive eigenvalue, N-1 equal negative ones).
* entries / evaluate: a kernel's canonical entries as a dict, and its
  value at any ordered tuple by lookup of the sorted tuple, the reference
  for the library's array paths.
* cross_moment: E[Q(f)(G) Q(g)(G)] from the shared canonical entries, the
  reference for the joint sampler's empirical covariance.
* draw_generator: a freshly built Philox generator for one draw, the
  reference for the sampler's per-draw re-keyed stream.
* law_draw: one draw of a named input law by the direct numpy call for
  that law, the reference for the sampler's raw fill and per-block finish.
* unit_sums: a kernel's sums over a whole batch by the evaluation rule
  written out on the batch at once (one GEMM over every row on the dense
  path, else one gather and GEMV per chunk of rows), the reference for
  the library's piecewise `RowSums`.
* whole_block_sums: one block of the sampler filled and finished as a
  whole and each kernel evaluated by unit_sums, the reference for the
  sampler's slice-by-slice block.
* rademacher_atoms_by_entry: the exact law of Q under i.i.d. signs by one
  popcount pass per entry over all 2^N patterns, the reference for the
  library's chunked enumeration.
* first_seen_ids_by_unique: rows numbered by first occurrence through
  np.unique over one opaque key per row, the reference for the library's
  lexsort numbering.
* parse_kernel_whole_text: a kernel file's text split into lines all at
  once, the reference for the library's streamed reading.
* format_kernel_by_record: a kernel file's text with each record formatted
  on its own by `str.format`, the reference for the library's block-wise
  formatter.
* read_samples: a raw sample dump read back by its layout, checked, the
  reader of the library's `--dump-samples` files.
* symmetrize_all_permutations: the average of a tensor over every axis
  permutation, one strided transpose added after another, the reference
  for the library's slab-wise symmetrization.
* symmetrize: a contraction's symmetrization assembled whole from the
  library's slabs, so that tests can hold it against
  symmetrize_all_permutations; the library itself only streams the slabs.
* t1_by_rank_loop, t3_by_rank_loop, fourth_moment_by_rank_loop and
  chi_square_combination_by_rank_loop: each statistic's weighted sum of
  squared symmetrized norms written out as its own loop, with its own weight
  expression and order of additions, read off a ChaosNorms record; the
  references for the library's one shared rank sum.
"""

import itertools
import math
import struct

import numpy as np
from numpy.random import Generator, Philox
from scipy import integrate, special

from homsum import contractions, kernels
from homsum.bounds import EXACT, UPPER_BOUND
from homsum.errors import CapacityError, ValidationError


def entries(f) -> dict:
    """{strictly increasing 1-based tuple: value} over the canonical entries."""
    rows = (f.index_array + 1).tolist()
    return {tuple(t): v for t, v in zip(rows, f.value_array.tolist())}


def evaluate(f, idx) -> float:
    """Kernel value at an arbitrary ordered 1-based tuple (0 on diagonals)."""
    t = sorted(int(i) for i in idx)
    if len(t) != f.d:
        raise ValidationError(f"tuple length {len(t)} != order {f.d}")
    if t[0] < 1 or t[-1] > f.N:
        raise ValidationError(f"index {t[0] if t[0] < 1 else t[-1]} outside 1..{f.N}")
    hit = np.flatnonzero((f.index_array == np.subtract(t, 1)).all(axis=1))
    return float(f.value_array[hit[0]]) if hit.size else 0.0


def cross_moment(a, b) -> float:
    """E[Q_a(G) Q_b(G)] = (d!)^2 * sum of a_t b_t over the canonical tuples t
    in both kernels (each canonical tuple stands for d! ordered ones); 0 when
    the orders differ (distinct Wiener chaoses are orthogonal)."""
    if a.d != b.d:
        return 0.0
    eb = entries(b)
    acc = 0.0
    for t, v in entries(a).items():
        if t in eb:
            acc += v * eb[t]
    return math.factorial(a.d) ** 2 * acc


def draw_generator(seed: int, draw_index: int) -> Generator:
    """The generator draw `draw_index` of a run with master seed `seed`
    reads from: Philox keyed by the 128-bit integer (seed << 64) | draw,
    each half taken mod 2^64."""
    mask = (1 << 64) - 1
    return Generator(Philox(key=((seed & mask) << 64) | (draw_index & mask)))


def law_draw(name: str, gen: Generator, size: int) -> np.ndarray:
    """`size` values of the law `name` (as `simulate.get_law` reads it) from
    one direct numpy call on `gen`.  The sampler's raw fill per draw and
    transform per block must match it bit for bit."""
    if name == "gaussian":
        return gen.standard_normal(size)
    if name == "rademacher":
        return gen.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
    if name == "uniform":
        return gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    if name == "shifted_exponential":
        return gen.standard_exponential(size) - 1.0
    tag, p = name.split(":")
    assert tag == "two_point", name
    p = float(p)
    hi = math.sqrt((1.0 - p) / p)
    lo = -math.sqrt(p / (1.0 - p))
    return np.where(gen.random(size) < p, hi, lo)


def unit_sums(f, X) -> np.ndarray:
    """Q_d of each row of X, shape (n, N), reduced in the units of
    `kernels.evaluation_chunk(f)` counted from the first row: on the dense
    path one GEMM quadratic form over all rows, else, per chunk, the rows'
    products x_{i1} ... x_{id} (multiplied in coordinate order) times the
    values by one GEMV, times d!."""
    chunk = kernels.evaluation_chunk(f)
    if chunk is None:
        return ((X @ kernels.dense_tensor(f)) * X).sum(axis=1)
    out = np.empty(len(X))
    for lo in range(0, len(X), chunk):
        rows = X[lo : lo + chunk]
        # row-major products: GEMV rounds a column-major array differently
        prod = np.take(rows, f.index_array[:, 0], axis=1)
        for k in range(1, f.d):
            prod = prod * np.take(rows, f.index_array[:, k], axis=1)
        out[lo : lo + chunk] = (prod @ f.value_array) * float(math.factorial(f.d))
    return out


def whole_block_sums(kernel_list, dist, seed, lo, hi, n_inputs) -> np.ndarray:
    """(hi - lo, len(kernel_list)) sums of draws lo..hi-1: every draw's raw
    fill into one (hi - lo, n_inputs) block, one finish over the block, then
    `unit_sums` of each kernel over all of its rows.  The sampler, which
    fills a block in slices and hands each slice to every kernel's
    `kernels.RowSums`, must give the same bits."""
    mask = (1 << 64) - 1
    X = np.empty((hi - lo, n_inputs))
    bit_gen = Philox(key=(seed & mask) << 64)
    fill = dist.filler(Generator(bit_gen))
    state = bit_gen.state
    for j, row in zip(range(lo, hi), X):
        state["state"]["key"][0] = j & mask
        bit_gen.state = state
        fill(row)
    dist.finish(X)
    block = np.empty((hi - lo, len(kernel_list)))
    for col, f in enumerate(kernel_list):
        block[:, col] = unit_sums(f, X[:, : f.N])
    return block


def rademacher_atoms_by_entry(f) -> tuple:
    """(atoms, probabilities) of Q_d(N, f, eps) for i.i.d. signs: each entry,
    in kernel order, adds d! * value * (-1)^popcount(pattern & mask) to the
    sums at all 2^N patterns in one pass.  The library's enumeration must
    give the same atoms and probabilities bit for bit."""
    n_patterns = 1 << f.N
    codes = np.arange(n_patterns, dtype=np.uint64)
    q = np.zeros(n_patterns)
    dfact = float(math.factorial(f.d))
    masks = (np.uint64(1) << f.index_array.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
    for mask, v in zip(masks, f.value_array.tolist()):
        parity = (np.bitwise_count(codes & mask) & np.uint64(1)).astype(np.float64)
        q += (dfact * v) * (1.0 - 2.0 * parity)
    atoms, counts = np.unique(q, return_counts=True)
    return atoms, counts / n_patterns


def first_seen_ids_by_unique(rows: np.ndarray) -> tuple:
    """(id of each row, distinct count), rows numbered by first occurrence:
    np.unique over one void key per row, each group ranked by its first
    position."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], len(first)


def parse_kernel_whole_text(text: str):
    """The kernel in a kernel file's text: every line split off at once, the
    blank ones dropped, and all records tokenized by one `str.split` and
    converted by `np.array`.  The library, which hands the lines to
    `np.loadtxt` as it reads them, must give the same kernel or raise the
    same exception type."""
    lines = [ln for ln in text.splitlines() if ln and not ln.isspace()]
    if not lines or lines[0].strip() != kernels.KERNEL_MAGIC:
        raise ValidationError("not a kernel file")
    try:
        d = int(lines[1].split()[1])
        N = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed kernel header: {exc}") from None
    records = lines[3:]
    # one split over all records, with a "|" token between them: every record
    # has d + 1 fields exactly when each separator sits at its expected slot
    tokens = " | ".join(records).split()
    width = d + 2
    if len(tokens) != width * len(records) - 1 or tokens[d + 1 :: width].count("|") != len(records) - 1:
        raise ValidationError("malformed kernel record")
    try:
        values = np.array(tokens[d::width], dtype=np.float64)
        columns = [np.array(tokens[k::width], dtype=np.int64) for k in range(d)]
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed kernel record: {exc}") from None
    return kernels.kernel_from_arrays(d, N, np.array(columns, dtype=np.int64).T, values)


def format_kernel_by_record(f) -> str:
    """The text of a kernel file: the three header lines, then one
    `i1 ... id value` record per entry, built by one `str.format` call of
    its own ("{}" for each 1-based index, "{!r}" for the value)."""
    record = " ".join(["{}"] * f.d) + " {!r}"
    lines = [kernels.KERNEL_MAGIC, f"d {f.d}", f"N {f.N}"]
    rows = zip((f.index_array + 1).tolist(), f.value_array.tolist())
    lines += [record.format(*t, v) for t, v in rows]
    return "\n".join(lines) + "\n"


def read_samples(path) -> np.ndarray:
    """The values of a raw sample dump: the magic HSUMRAW1, a little-endian
    u64 count, then that many `<f8` values."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:8] != b"HSUMRAW1":
            raise ValidationError(f"not a raw sample file (magic {head[:8]!r})")
        if len(head) < 16:
            raise ValidationError(f"truncated sample file: header of {len(head)} bytes, need 16")
        (count,) = struct.unpack("<Q", head[8:])
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
    if data.size != count:
        raise ValidationError(f"truncated sample file: header {count}, got {data.size}")
    return data.astype(np.float64)


def symmetrize_all_permutations(values: np.ndarray) -> np.ndarray:
    """Sum of np.transpose(values, p) over the permutations p of the axes, in
    itertools.permutations order and starting from 0.0, divided by
    (arity)!.  The library's symmetrized slabs must give the same bits."""
    acc = np.zeros_like(values)
    for p in itertools.permutations(range(values.ndim)):
        acc += np.transpose(values, p)
    acc /= math.factorial(values.ndim)
    return acc


def symmetrize(T):
    """T averaged over all coordinate permutations, as a ContractionTensor
    filled slab by slab from the library's symmetrized slabs."""
    values = np.empty_like(T.values)
    for slab, part in contractions._symmetrized_slabs(T):
        values[slab] = part
    return contractions.ContractionTensor(T.arity, T.N, values)


def _normal_contraction_sum(norms, ranks) -> tuple:
    d = norms.f.d
    pairs = []
    for r in ranks:  # past the cap the Gram norm, an upper bound, stands in
        try:
            pairs.append((norms.exact_symmetrized(r), True))
        except CapacityError:
            pairs.append((norms.gram(r), False))
    acc = sum(
        math.factorial(r - 1) ** 2
        * math.comb(d - 1, r - 1) ** 4
        * math.factorial(2 * d - 2 * r)
        * value ** 2
        for r, (value, _) in zip(ranks, pairs)
    )
    return d ** 2 * acc, EXACT if all(exact for _, exact in pairs) else UPPER_BOUND


def t1_by_rank_loop(norms) -> tuple:
    """(t1, exactness) of the kernel of a ChaosNorms record."""
    value, exactness = _normal_contraction_sum(norms, range(1, norms.f.d))
    return math.sqrt(value), exactness


def _chi_square_constant(d: int) -> float:
    return 4.0 * math.factorial(d // 2) ** 3 / math.factorial(d) ** 2


def t3_by_rank_loop(norms) -> tuple:
    """(t3, exactness) of the even-order kernel of a ChaosNorms record."""
    d = norms.f.d
    first = 4.0 * math.factorial(d) * (norms.defect() / _chi_square_constant(d)) ** 2
    rest, exactness = _normal_contraction_sum(norms, [r for r in range(1, d) if r != d // 2])
    return math.sqrt(first + rest), exactness


def fourth_moment_by_rank_loop(norms) -> float:
    """E[Q(G)^4] of the unit-variance kernel of a ChaosNorms record."""
    d = norms.f.d
    acc = 0.0
    for r in range(1, d):
        acc += (
            math.factorial(r)
            * math.factorial(r - 1)
            * math.comb(d, r) ** 2
            * math.comb(d - 1, r - 1) ** 2
            * math.factorial(2 * d - 2 * r)
            * norms.exact_symmetrized(r) ** 2
        )
    return 3.0 + 3.0 * d * acc


def chi_square_combination_by_rank_loop(norms, nu: int) -> float:
    """E[Q(G)^4] - 12 E[Q(G)^3] of the even-order kernel, normalized to
    E[Q^2] = 2 nu, of a ChaosNorms record."""
    d = norms.f.d
    acc = 24.0 * math.factorial(d) * (norms.defect() / _chi_square_constant(d)) ** 2
    for r in range(1, d):
        if r == d // 2:
            continue
        acc += (
            3.0
            * d
            * math.factorial(r)
            * math.factorial(r - 1)
            * math.comb(d, r) ** 2
            * math.comb(d - 1, r - 1) ** 2
            * math.factorial(2 * d - 2 * r)
            * norms.exact_symmetrized(r) ** 2
        )
    return 12.0 * nu ** 2 - 48.0 * nu + acc


def product_normal_cdf(z: float) -> float:
    """P(G1 * G2 <= z); density is K_0(|t|)/pi (integrable log singularity)."""
    if z == 0.0:
        return 0.5
    lo, hi = sorted((0.0, z))
    val, _ = integrate.quad(lambda t: special.k0(abs(t)) / math.pi, lo, hi, points=[0.0], limit=200)
    return 0.5 + math.copysign(val, z)


def ks_product_normal_vs_standard_normal(grid_size: int = 4001) -> float:
    """sup_z |P(G1 G2 <= z) - Phi(z)| on a dense grid."""
    grid = np.linspace(-6.0, 6.0, grid_size)
    diffs = [abs(product_normal_cdf(z) - special.ndtr(z)) for z in grid]
    return float(max(diffs))


def constant_kernel_q_cdf(x: float, N: int) -> float:
    """P(Q <= x) for Q = c * sum_{i != j} G_i G_j, c = 1/sqrt(N(N-1)).

    The coefficient matrix c(J - I) has eigenvalues c(N-1) (once) and -c
    (N-1 times), so Q = c(N-1) Z^2 - c W with independent Z ~ N(0,1) and
    W ~ chi-square(N-1):

        P(Q <= x) = E_W[ P(chi2_1 <= (x + c W) / (c (N-1))) ].
    """
    c = 1.0 / math.sqrt(N * (N - 1))
    k = N - 1

    def inner(w):
        t = (x + c * w) / (c * (N - 1))
        t = np.maximum(t, 0.0)
        return special.gammainc(0.5, t / 2.0) * _chi2_pdf(w, k)

    center = k
    spread = 14.0 * math.sqrt(2.0 * k)
    lo = max(0.0, center - spread)
    hi = center + spread
    val, _ = integrate.quad(inner, lo, hi, limit=300)
    return float(val)


def _chi2_pdf(w, k):
    w = np.asarray(w, dtype=np.float64)
    half = k / 2.0
    return np.where(
        w > 0,
        np.exp((half - 1.0) * np.log(np.maximum(w, 1e-300)) - w / 2.0
               - half * math.log(2.0) - math.lgamma(half)),
        0.0,
    )


def ks_constant_kernel_vs_centered_chi2(N: int, grid_size: int = 1200) -> float:
    """sup_x |P(Q_CONST2(N) <= x) - P(chi2_1 - 1 <= x)|, concentrated grid
    near the left endpoint where the target density is singular."""
    left = np.linspace(-1.0 - 0.5, -1.0 + 1.5, grid_size // 2)
    right = np.linspace(0.5, 12.0, grid_size // 2)
    grid = np.concatenate([left, right])
    best = 0.0
    for x in grid:
        target = special.gammainc(0.5, max(x + 1.0, 0.0) / 2.0)
        best = max(best, abs(constant_kernel_q_cdf(float(x), N) - target))
    return best
