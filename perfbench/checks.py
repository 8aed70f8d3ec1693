"""Checks on the benchmark's reports, computed apart from homsum.

Nothing here imports homsum.  Reports and kernel files are parsed by this
module's own readers, and every expected value comes from a closed form or
from a direct computation on the kernel file:

* disjoint_pairs(m): Q = m^{-1/2} sum of m i.i.d. products x x', so its raw
  moments follow from those of the input law by convolution; E Q^4 =
  3 + (mu4^2 - 3)/m and t1 = t2 = m^{-1/2}.
* walsh(2, N) with E Q^2 = s2: Q = sqrt(s2) x_1 T, T the standardized sum of
  N - 1 inputs; E Q^3 = 2^{3/2} mu3^2 / sqrt(N-1) and E Q^4 =
  4 mu4 (3 + (mu4 - 3)/(N-1)) at s2 = 2; t3 = t4 = sqrt(12).
* walsh(4, N) under Gaussian inputs: E Q^4 = 27 * 3 = 81.
* constant(N) under Rademacher inputs: Q = c (S^2 - N), S = N - 2 Bin(N, 1/2).
* constant(N) under Gaussian inputs: Q = x^T F x with F = c (J - I), whose
  cumulants are 2^{k-1} (k-1)! tr F^k; E Q^4 - 3 = 48 c^4 ((N-1)^4 + N - 1)
  at E Q^2 = 1, and the chi-square defect ||F^2 - F|| has a closed form.
* any kernel under symmetric inputs with E x^2 = 1 and E x^4 = mu4:
  E Q^4 = (d!)^4 sum over pairs of entry pairs (a, b), (c, e) with
  a xor b = c xor e of f_a f_b f_c f_e mu4^{|(a and b) and (c and e)|};
  mu4 = 1 is the Rademacher case.
* sampled moments lie within 5 standard errors of the exact value, the
  standard error taken from the exact higher moments, wherever the sample
  mean is nearly symmetric (skewness at most 0.25); Kolmogorov distances
  lie within the DKW band (failure probability 1e-6) of the exact distance
  where the law is known, and below the Berry-Esseen bound otherwise.
* t1 <= t2, t3 <= t4, and every report total recomputes from its components.

Each check fills a `Checker`, which records every value it verified so the
self-test can perturb that value and see the check fail.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np
from scipy.special import gammaln, ndtr

SIGMAS = 5.0  # tolerance of a sampled moment, in standard errors
MAX_SKEW = 0.25  # largest skewness of a sample mean checked with SIGMAS
MOMENTS = 12  # exact moments up to this order: 3k for the skewness of Q^k, k <= 4
KS_DELTA = 1e-6  # failure probability of one DKW band
BERRY_ESSEEN_C = 0.4748  # i.i.d. Berry-Esseen constant (Shevtsova 2011)
TREND_TOLERANCE = 1e-9
TERMINAL_THRESHOLD = 0.05
REPORT_MAGIC = "artifact-report v1"
KERNEL_MAGIC = "artifact-kernel v1"


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def parse_report(text: str) -> dict:
    """{section: {key: raw string}} of a report, in file order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != REPORT_MAGIC:
        raise ValueError("not a report")
    sections: dict = {}
    current = None
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            current = sections.setdefault(ln[1:-1], {})
        else:
            key, value = ln.split(" = ", 1)
            current[key] = value
    return sections


def read_kernel(path) -> tuple:
    """(d, N, index tuples, values) of a kernel file, entries in file order."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or " ".join(lines[0]) != KERNEL_MAGIC:
        raise ValueError(f"{path} is not a kernel file")
    d, N = int(lines[1][1]), int(lines[2][1])
    idx = [tuple(int(p) for p in rec[:d]) for rec in lines[3:]]
    vals = np.array([float(rec[d]) for rec in lines[3:]])
    return d, N, idx, vals


def normalized(d: int, vals: np.ndarray, sigma2: float = 1.0) -> np.ndarray:
    """Canonical values scaled so that E Q^2 = (d!)^2 sum f^2 = sigma2."""
    return vals * math.sqrt(sigma2 / (math.factorial(d) ** 2 * float(vals @ vals)))


def dense(d: int, N: int, idx, vals) -> np.ndarray:
    F = np.zeros((N,) * d)
    for t, v in zip(idx, vals):
        for p in itertools.permutations(t):
            F[tuple(i - 1 for i in p)] = v
    return F


def influences(N: int, idx, vals) -> np.ndarray:
    out = np.zeros(N)
    for t, v in zip(idx, vals):
        for i in t:
            out[i - 1] += v * v
    return out


def contraction_norm(F: np.ndarray, r: int) -> float:
    """||f *_r f|| over ordered tuples, from the dense kernel."""
    N, d = F.shape[0], F.ndim
    M = F.reshape(N ** r, N ** (d - r))
    return float(np.linalg.norm(M.T @ M))


# ---------------------------------------------------------------------------
# Laws and exact moments
# ---------------------------------------------------------------------------

def law_moments(name: str, kmax: int = MOMENTS) -> list:
    """Raw moments E X^k, k = 0..kmax, of a centered unit-variance law."""
    if name == "gaussian":
        return [0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2))) for k in range(kmax + 1)]
    if name == "rademacher":
        return [0.0 if k % 2 else 1.0 for k in range(kmax + 1)]
    if name == "uniform":  # on [-sqrt 3, sqrt 3]
        return [0.0 if k % 2 else 3.0 ** (k / 2) / (k + 1) for k in range(kmax + 1)]
    if name == "shifted_exponential":  # E (E - 1)^k
        return [float(sum(math.comb(k, j) * math.factorial(j) * (-1) ** (k - j) for j in range(k + 1)))
                for k in range(kmax + 1)]
    if name.startswith("two_point:"):
        p = float(name.split(":", 1)[1])
        hi, lo = math.sqrt((1 - p) / p), -math.sqrt(p / (1 - p))
        return [p * hi ** k + (1 - p) * lo ** k for k in range(kmax + 1)]
    raise ValueError(f"unknown law {name!r}")


def law_abs_moment3(name: str) -> float:
    if name == "gaussian":
        return 2.0 * math.sqrt(2.0 / math.pi)
    if name == "rademacher":
        return 1.0
    if name == "uniform":
        return 3.0 * math.sqrt(3.0) / 4.0
    if name == "shifted_exponential":
        return 12.0 / math.e - 2.0
    if name.startswith("two_point:"):
        p = float(name.split(":", 1)[1])
        return p * ((1 - p) / p) ** 1.5 + (1 - p) * (p / (1 - p)) ** 1.5
    raise ValueError(f"unknown law {name!r}")


def _convolve(a, b):
    """Raw moments of A + B for independent A, B."""
    return [sum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def sum_moments(mu, count: int) -> list:
    """Raw moments of a sum of `count` i.i.d. copies (square-and-multiply)."""
    result = [1.0] + [0.0] * (len(mu) - 1)
    power = list(mu)
    while count:
        if count & 1:
            result = _convolve(result, power)
        power = _convolve(power, power)
        count >>= 1
    return result


def disjoint_pairs_moments(m: int, law: str) -> list:
    mu = law_moments(law)
    s = sum_moments([x * x for x in mu], m)
    return [s[k] / m ** (k / 2) for k in range(len(s))]


def walsh2_moments(N: int, law: str, sigma2: float) -> list:
    mu = law_moments(law)
    s = sum_moments(mu, N - 1)
    return [sigma2 ** (k / 2) * mu[k] * s[k] / (N - 1) ** (k / 2) for k in range(len(s))]


def constant_rademacher_law(N: int, sigma2: float) -> tuple:
    """(atoms, probabilities) of Q = c (S^2 - N), sorted ascending."""
    c = math.sqrt(sigma2 / (2.0 * N * (N - 1)))
    k = np.arange(N + 1)
    pmf = np.exp(gammaln(N + 1) - gammaln(k + 1) - gammaln(N - k + 1) - N * math.log(2.0))
    s = N - 2 * k
    atoms = defaultdict(float)
    for sv, p in zip(np.abs(s), pmf):
        atoms[int(sv)] += p
    keys = sorted(atoms)
    return np.array([c * (sv * sv - N) for sv in keys]), np.array([atoms[sv] for sv in keys])


def disjoint_pairs_rademacher_law(m: int) -> tuple:
    k = np.arange(m + 1)
    pmf = np.exp(gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1) - m * math.log(2.0))
    return (2 * k - m) / math.sqrt(m), pmf


def atom_moments(atoms, probs, kmax: int = MOMENTS) -> list:
    return [float(probs @ atoms ** k) for k in range(kmax + 1)]


def ks_to_normal(atoms, probs) -> float:
    """sup |F - Phi| for a finite law, checked on both sides of each atom."""
    cdf = np.cumsum(probs)
    phi = ndtr(atoms)
    return float(max(np.abs(cdf - phi).max(), np.abs(cdf - probs - phi).max()))


def dkw_band(n: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def constant_trace(N: int, c: float, k: int) -> float:
    """tr F^k for F = c (J - I): eigenvalues c (N-1) once and -c (N-1) times."""
    return c ** k * ((N - 1) ** k + (N - 1) * (-1) ** k)


def constant_defect(N: int, sigma2: float) -> float:
    """||F^2 - F|| over the full N x N square for F = c (J - I)."""
    c = math.sqrt(sigma2 / (2.0 * N * (N - 1)))
    diag = c * c * (N - 1)
    off = c * c * (N - 2) - c
    return math.sqrt(N * diag ** 2 + N * (N - 1) * off ** 2)


def fourth_moment_symmetric(d: int, idx, vals, mu4: float) -> float:
    """E Q^4 under a symmetric unit-variance law with fourth moment mu4,
    grouping ordered entry pairs by the symmetric difference of supports."""
    masks = [sum(1 << (i - 1) for i in t) for t in idx]
    groups: dict = defaultdict(list)
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            groups[ma ^ mb].append((vals[a] * vals[b], ma & mb))
    total = 0.0
    for pairs in groups.values():
        w = np.array([p[0] for p in pairs])
        both = np.array([p[1] for p in pairs], dtype=object)
        if mu4 == 1.0:
            total += float(w.sum()) ** 2
            continue
        common = np.array([[bin(x & y).count("1") for y in both] for x in both])
        total += float(w @ (mu4 ** common) @ w)
    return math.factorial(d) ** 4 * total


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

class Checker:
    """Compares report values with expected ones and records each
    comparison as (kind, section, key, expected, tolerance)."""

    def __init__(self, sections: dict):
        self.sections = sections
        self.failures: list = []
        self.verified: list = []

    def raw(self, section: str, key: str):
        """The raw string; `key#j` names item j of a comma-separated list."""
        base, _, item = key.partition("#")
        try:
            s = self.sections[section][base]
            return s.split(",")[int(item)] if item else s
        except (KeyError, IndexError):
            self.failures.append(f"[{section}] {key} missing")
            return None

    def set_raw(self, section: str, key: str, value: str) -> None:
        base, _, item = key.partition("#")
        if item:
            parts = self.sections[section][base].split(",")
            parts[int(item)] = value
            value = ",".join(parts)
        self.sections[section][base] = value

    def value(self, section: str, key: str) -> float:
        s = self.raw(section, key)
        return float("nan") if s is None else float(s)

    def within(self, section, key, want, tol) -> None:
        got = self.value(section, key)
        self.verified.append(("within", section, key, want, tol))
        if not abs(got - want) <= tol:
            self.failures.append(f"[{section}] {key} = {got!r}, expected {want!r} +- {tol!r}")

    def close(self, section, key, want, rtol=1e-9) -> None:
        self.within(section, key, want, rtol * abs(want) + 1e-15)

    def at_most(self, section, key, bound) -> None:
        got = self.value(section, key)
        self.verified.append(("at_most", section, key, bound, 0.0))
        if not got <= bound:
            self.failures.append(f"[{section}] {key} = {got!r} exceeds {bound!r}")

    def at_least(self, section, key, bound) -> None:
        got = self.value(section, key)
        self.verified.append(("at_least", section, key, bound, 0.0))
        if not got >= bound:
            self.failures.append(f"[{section}] {key} = {got!r} below {bound!r}")

    def equal(self, section, key, want: str) -> None:
        got = self.raw(section, key)
        self.verified.append(("equal", section, key, want, 0.0))
        if got != want:
            self.failures.append(f"[{section}] {key} = {got!r}, expected {want!r}")


def _fmt(flag: bool) -> str:
    return "true" if flag else "false"


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _moment_tolerance(EQ: list, k: int, n: int) -> float | None:
    """SIGMAS exact standard errors of the sample mean of Q^k, or None when
    that mean is too skewed (skewness above MAX_SKEW, from the exact moments
    up to order 3k) for a normal-tail rule to hold."""
    mean, var = EQ[k], EQ[2 * k] - EQ[k] ** 2
    third = EQ[3 * k] - 3.0 * mean * EQ[2 * k] + 2.0 * mean ** 3
    if third / var ** 1.5 / math.sqrt(n) > MAX_SKEW:
        return None
    return SIGMAS * math.sqrt(var / n)


def _mc_moment(c: Checker, sec: str, key: str, EQ: list, k: int, n: int) -> None:
    tol = _moment_tolerance(EQ, k, n)
    if tol is not None:
        c.within(sec, key, EQ[k], tol)


def _sampled_moments(c: Checker, sec: str, EQ: list, n: int, ks: tuple) -> None:
    """Sampled moments within their tolerance, the reported standard errors
    consistent with the moments, and the Kolmogorov distance to N(0,1);
    `ks` is ("exact", D) or ("be", bound)."""
    c.equal(sec, "n", str(n))
    for k in range(1, 5):
        _mc_moment(c, sec, f"moment{k}", EQ, k, n)
    _standard_errors(c, sec, n)
    _ks(c, sec, "ks_normal", ks, n)


def _standard_errors(c: Checker, sec: str, n: int) -> None:
    """se_k^2 (n - 1) = m_{2k} - m_k^2 for k = 1, 2 (ddof = 1 standard errors)."""
    m1, m2, m4 = (c.value(sec, f"moment{k}") for k in (1, 2, 4))
    c.close(sec, "se1", math.sqrt(max(m2 - m1 * m1, 0.0) / (n - 1)), 1e-7)
    c.close(sec, "se2", math.sqrt(max(m4 - m2 * m2, 0.0) / (n - 1)), 1e-7)


def _ks(c: Checker, sec: str, key: str, ks: tuple, n: int) -> None:
    band = dkw_band(n, KS_DELTA)
    kind, value = ks
    if kind == "exact":
        c.within(sec, key, value, band)
    else:
        c.at_most(sec, key, min(1.0, value) + band)
        c.at_least(sec, key, 0.0)


def _disjoint_pairs_ks(m: int, law: str) -> tuple:
    if law == "rademacher":
        return ("exact", ks_to_normal(*disjoint_pairs_rademacher_law(m)))
    return ("be", BERRY_ESSEEN_C * law_abs_moment3(law) ** 2 / math.sqrt(m))


def _c_star(d: int, a=0.0, b=0.0, b3=1.0) -> float:
    inner = max(1.5 * b + (b3 / 3.0) * (2.0 * math.sqrt(2.0) / math.sqrt(math.pi)), 2.0 * a + b3 / 3.0)
    return 4.0 * math.sqrt(2.0) * (1.0 + 5.0 ** (1.5 * d)) * inner


def _normal_bound(c: Checker, d: int, law: str, max_inf: float, eq4g: float, exactness: str) -> None:
    """Everything of a `bound normal` report (budget 0,0,1) except eq4x and t1."""
    sec = "bound"
    mu4 = law_moments(law)[4]
    alpha = max(3.0, mu4)
    c.equal(sec, "kind", "normal")
    c.equal(sec, "applicable", "true")
    c.equal(sec, "eq4x_exactness", exactness)
    c.close(sec, "d", float(d))
    c.close(sec, "max_influence", max_inf)
    c.close(sec, "c_star", _c_star(d))
    c.close(sec, "invariance", (30.0 * mu4) ** d * math.factorial(d) * math.sqrt(max_inf))
    c.close(sec, "influence_term", 4.0 * math.sqrt(2.0) * 144.0 ** (d - 0.5) * alpha ** (d / 2.0)
            * math.sqrt(d) * math.factorial(d) * max_inf ** 0.25)
    c.close(sec, "moment_term", math.sqrt(abs(c.value(sec, "eq4x") - 3.0)))
    factor = math.sqrt((d - 1) / (3.0 * d))
    v = {k: c.value(sec, k) for k in ("invariance", "c_star", "moment_term", "influence_term", "t1")}
    c.close(sec, "total", v["invariance"] + v["c_star"] * factor * (v["moment_term"] + v["influence_term"]))
    c.close(sec, "t2", math.sqrt(factor ** 2 * abs(eq4g - 3.0)))
    c.close(sec, "tv_bound", 2.0 * v["t1"])
    c.at_most(sec, "t1", c.value(sec, "t2") * (1 + 1e-12))


def _chi2_bound(c: Checker, law: str, max_inf: float, exactness: str, nu: int = 1, d: int = 2) -> None:
    """Components and total of a `bound chi2` report."""
    sec = "bound"
    mu4 = law_moments(law)[4]
    alpha = max(3.0, mu4)
    c.equal(sec, "kind", "chi2")
    c.equal(sec, "moments_exactness", exactness)
    c.close(sec, "nu", float(nu))
    c.close(sec, "max_influence", max_inf)
    c.close(sec, "prefactor", max(math.sqrt(2.0 * math.pi / nu), 1.0 / nu + 2.0 / nu ** 2))
    c.close(sec, "invariance", (30.0 * mu4) ** d * math.factorial(d) * math.sqrt(max_inf))
    c.close(sec, "influence_term", 4.0 * math.sqrt(d) * math.factorial(d) * (
        math.sqrt(2.0) * 144.0 ** (d - 0.5) * alpha ** (d / 2.0)
        + math.sqrt(nu) * (2.0 * math.sqrt(2.0)) ** (3.0 * (2 * d - 1) / 2.0) * alpha ** (1.5 * d)
    ) * max_inf ** 0.25)
    eq3, eq4 = c.value(sec, "eq3x"), c.value(sec, "eq4x")
    c.close(sec, "moment_term", math.sqrt(abs(eq4 - 12.0 * eq3 - 12.0 * nu ** 2 + 48.0 * nu)))
    v = {k: c.value(sec, k) for k in ("invariance", "prefactor", "moment_term", "influence_term")}
    factor = math.sqrt((d - 1) / (3.0 * d))
    c.close(sec, "total", v["invariance"] + v["prefactor"] * factor * (v["moment_term"] + v["influence_term"]))
    c.at_most(sec, "t3", c.value(sec, "t4") * (1 + 1e-12))


def _trend(series) -> str:
    tol = TREND_TOLERANCE
    down = all(b < a + tol for a, b in zip(series, series[1:])) and series[-1] < series[0] - tol
    return "decreasing" if down else "stagnant"


def _verdict_head(c: Checker, kind: str, stats: list, series: dict) -> bool:
    """Kind, statistics list, trend labels recomputed from `series`;
    returns whether every trend decreases."""
    c.equal("verdict", "kind", kind)
    c.equal("verdict", "statistics", ",".join(stats))
    c.close("verdict", "tolerance", TREND_TOLERANCE)
    c.close("verdict", "threshold", TERMINAL_THRESHOLD)
    trends = {name: _trend(series[name]) for name in stats}
    for name in stats:
        c.equal("verdict", f"trend.{name}", trends[name])
    return all(t == "decreasing" for t in trends.values())


# ---------------------------------------------------------------------------
# One check per command shape; each takes (checker, facts, argv, workdir)
# ---------------------------------------------------------------------------

def simulate_disjoint_pairs(c, facts, argv, workdir):
    m, law = facts["m"], facts["law"]
    c.equal("summary", "law", law)
    _sampled_moments(c, "summary", disjoint_pairs_moments(m, law), int(_flag(argv, "--n")),
                     _disjoint_pairs_ks(m, law))


def simulate_unit_variance(c, facts, argv, workdir):
    """Any unit-variance kernel: E Q = 0 with standard error n^{-1/2} exactly,
    E Q^2 = 1 within the reported standard error (checked for consistency)."""
    n = int(_flag(argv, "--n"))
    c.equal("summary", "law", facts["law"])
    c.equal("summary", "n", str(n))
    c.within("summary", "moment1", 0.0, SIGMAS / math.sqrt(n))
    _standard_errors(c, "summary", n)
    c.within("summary", "moment2", 1.0, SIGMAS * c.value("summary", "se2"))
    _ks(c, "summary", "ks_normal", ("be", 1.0), n)


def simulate_constant_rademacher(c, facts, argv, workdir):
    """Q is close to (Z^2 - 1)/sqrt(2): its higher sample moments are too
    skewed to check at a few thousand draws, but the law is known exactly."""
    atoms, probs = constant_rademacher_law(facts["N"], 1.0)
    c.equal("summary", "law", "rademacher")
    _sampled_moments(c, "summary", atom_moments(atoms, probs), int(_flag(argv, "--n")),
                     ("exact", ks_to_normal(atoms, probs)))


def bound_normal_disjoint_pairs(c, facts, argv, workdir):
    m, law, n = facts["m"], facts["law"], int(_flag(argv, "--n"))
    EQ = disjoint_pairs_moments(m, law)
    _mc_moment(c, "bound", "eq4x", EQ, 4, n)
    c.close("bound", "t1", 1.0 / math.sqrt(m))
    _normal_bound(c, 2, law, 1.0 / (4.0 * m), 3.0 + 6.0 / m, "monte-carlo")


def bound_chi2_walsh(c, facts, argv, workdir):
    N, law, n = facts["N"], facts["law"], int(_flag(argv, "--n"))
    EQ = walsh2_moments(N, law, 2.0)
    for k, key in ((3, "eq3x"), (4, "eq4x")):
        _mc_moment(c, "bound", key, EQ, k, n)
    c.close("bound", "t3", math.sqrt(12.0))
    c.close("bound", "t4", math.sqrt(12.0))
    _chi2_bound(c, law, 0.5, "monte-carlo")


def bound_chi2_constant_rademacher(c, facts, argv, workdir):
    N = facts["N"]
    EQ = atom_moments(*constant_rademacher_law(N, 2.0))
    c.close("bound", "eq3x", EQ[3])
    c.close("bound", "eq4x", EQ[4])
    cc = 1.0 / math.sqrt(N * (N - 1))
    eg3 = 8.0 * constant_trace(N, cc, 3)
    eg4 = 48.0 * constant_trace(N, cc, 4) + 3.0 * (2.0 * constant_trace(N, cc, 2)) ** 2
    c.close("bound", "t3", math.sqrt(8.0) * constant_defect(N, 2.0))
    c.close("bound", "t4", math.sqrt(abs(eg4 - 12.0 * eg3 - 12.0 + 48.0) / 6.0))
    _chi2_bound(c, "rademacher", 1.0 / N, "exact")


def bound_normal_exact(c, facts, argv, workdir):
    d, N, idx, raw = read_kernel(f"{workdir}/{facts['kernel']}")
    vals = normalized(d, raw)
    mu4 = law_moments(facts["law"])[4]
    eq4 = fourth_moment_symmetric(d, idx, vals, mu4)
    eq4g = eq4 if mu4 == 3.0 else fourth_moment_symmetric(d, idx, vals, 3.0)
    c.close("bound", "eq4x", eq4)
    if "eq4x" in facts:  # closed form, e.g. 81 for walsh(4, N) under Gaussian inputs
        c.close("bound", "eq4x", facts["eq4x"])
    if d == 2:
        c.close("bound", "t1", math.sqrt(8.0) * contraction_norm(dense(d, N, idx, vals), 1))
    _normal_bound(c, d, facts["law"], float(influences(N, idx, vals).max()), eq4g, "exact")


def bound_multi(c, facts, argv, workdir):
    beta3 = law_abs_moment3(facts["law"])
    ks = []
    for name in facts["kernels"]:
        d, N, idx, raw = read_kernel(f"{workdir}/{name}")
        vals = normalized(d, raw)
        F = dense(d, N, idx, vals)
        ks.append((d, N, influences(N, idx, vals), {r: contraction_norm(F, r) for r in range(1, d)}))
    m = len(ks)
    delta = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            (di, _, _, ci), (dj, _, _, cj) = sorted((ks[i], ks[j]), key=lambda k: k[0])
            acc = sum(math.factorial(r - 1) * math.comb(di - 1, r - 1) * math.comb(dj - 1, r - 1)
                      * math.sqrt(math.factorial(di + dj - 2 * r)) * (ci[di - r] + cj[dj - r])
                      for r in range(1, di))
            delta[i, j] = dj / math.sqrt(2.0) * acc
            if di < dj:
                delta[i, j] += math.sqrt(math.factorial(dj) * math.comb(dj, di) * cj[dj - di])
    n_max = max(k[1] for k in ks)
    stacked = np.zeros((m, n_max))
    for j, k in enumerate(ks):
        stacked[j, : k[1]] = k[2]
    per_index = stacked.max(axis=0)
    cube = sum((16.0 * math.sqrt(2.0) * beta3) ** ((k[0] - 1) / 3.0) * math.factorial(k[0]) for k in ks)
    mixing = per_index.sum() * (beta3 + math.sqrt(8.0 / math.pi)) * cube ** 3 * math.sqrt(per_index.max())
    sec = "bound"
    c.equal(sec, "kind", "multivariate")
    c.close(sec, "m", float(m))
    b2m, b3m = (float(x) for x in _flag(argv, "--budget").split(","))
    c.close(sec, "b2m", b2m)
    c.close(sec, "b3m", b3m)
    for i in range(m):
        for j in range(m):
            c.close(sec, f"delta.{i}#{j}", float(delta[i, j]))
    c.close(sec, "delta_total", float(np.trace(delta) + 2.0 * np.triu(delta, k=1).sum()))
    c.close(sec, "c_influence_sum", float(per_index.sum()))
    c.close(sec, "max_max_influence", float(per_index.max()))
    c.close(sec, "mixing_term", float(mixing))
    c.close(sec, "total", b2m * c.value(sec, "delta_total") + b3m * c.value(sec, "mixing_term"))


def diagnose_fourth_moment_constant(c, facts, argv, workdir):
    stats = ["max_influence", "contraction_norm_r1", "fourth_moment_gap"]
    series = {name: [] for name in stats}
    for i, N in enumerate(facts["sweep"]):
        c2 = 1.0 / (2.0 * N * (N - 1))
        want = {
            "max_influence": 1.0 / (2.0 * N),
            "contraction_norm_r1": c2 * math.sqrt((N - 1) ** 4 + N - 1),
            "fourth_moment_gap": 48.0 * c2 * c2 * ((N - 1) ** 4 + N - 1),
        }
        c.close(f"point.{i}", "size", float(N))
        for name in stats:
            c.close(f"point.{i}", name, want[name])
            series[name].append(want[name])
    down = _verdict_head(c, "fourth_moment", stats, series)
    c.equal("verdict", "verdict", _fmt(down and all(s[-1] < TERMINAL_THRESHOLD for s in series.values())))


def diagnose_chi_square_constant(c, facts, argv, workdir):
    series = {"chi_square_defect": [constant_defect(N, 2.0) for N in facts["sweep"]]}
    for i, N in enumerate(facts["sweep"]):
        c.close(f"point.{i}", "size", float(N))
        c.close(f"point.{i}", "chi_square_defect", series["chi_square_defect"][i])
    down = _verdict_head(c, "chi_square", ["chi_square_defect"], series)
    c.equal("verdict", "verdict", _fmt(down and series["chi_square_defect"][-1] < TERMINAL_THRESHOLD))


def diagnose_universality(c, facts, argv, workdir):
    """Each Kolmogorov distance against the exact or Berry-Esseen value; the
    trends and the verdict recomputed from the reported distances."""
    n, laws = facts["n"], facts["laws"]
    stats = [f"ks_{law}" for law in laws]
    series = {name: [] for name in stats}
    for i, m in enumerate(facts["sweep"]):
        c.close(f"point.{i}", "size", float(m))
        for law, name in zip(laws, stats):
            _ks(c, f"point.{i}", name, _disjoint_pairs_ks(m, law), n)
            series[name].append(c.value(f"point.{i}", name))
    down = _verdict_head(c, "universality", stats, series)
    terminal = [s[-1] for s in series.values()]
    agree = max(terminal) - min(terminal) <= 3.0 * dkw_band(n, 0.01)
    c.equal("verdict", "verdict", _fmt(agree and down))


CHECKS = {
    f.__name__: f
    for f in (
        simulate_disjoint_pairs, simulate_unit_variance, simulate_constant_rademacher,
        bound_normal_disjoint_pairs, bound_chi2_walsh, bound_chi2_constant_rademacher,
        bound_normal_exact, bound_multi, diagnose_fourth_moment_constant,
        diagnose_chi_square_constant, diagnose_universality,
    )
}


def check_report(command, text: str, workdir: str) -> Checker:
    """Run the command's check on its report text; a report that does not
    parse yields a checker with one failure."""
    try:
        sections = parse_report(text)
    except ValueError as exc:
        c = Checker({})
        c.failures.append(f"unreadable report: {exc}")
        return c
    c = Checker(sections)
    try:
        CHECKS[command.check](c, command.facts, list(command.argv), workdir)
    except ValueError as exc:  # a report value that is not a number
        c.failures.append(f"malformed report value: {exc}")
    return c
