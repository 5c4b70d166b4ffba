"""Tail bounds for sums of i.i.d. operator-valued random variables.

An OperatorRV is a finitely supported distribution over Hermitian
matrices.  An i.i.d. sum only depends on how often each atom occurs, so
both tail engines decide the event on count vectors, once per distinct
vector and in chunks of stacked sums: exact tails enumerate every
composition of n, Monte Carlo tails draw from a single Philox stream per
call and evaluate only the count vectors that occurred.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import LN2, MAX_ENUMERATION, MAX_PROBE_COUNT, DomainError
from .rng import make_rng, random_distribution, random_effect, random_hermitian, spawn_seeds

# Sums are formed from blocks of count vectors (chunk x atoms) and handed
# to the event in stacks (D^2 entries per sum), each of at most this many
# entries, so memory stays flat for any D and any number of atoms.
ENUMERATION_CHUNK_ENTRIES = 1 << 12

# Monte Carlo bins draws by one comparison pass per cdf step up to this many
# atoms and by a binary search per draw above it; the two cost about the
# same near 24-32 atoms (n 7-40, 6k-14k trials).
MC_COMPARE_ATOMS = 24


@dataclass(frozen=True)
class TailReport:
    """Outcome of one tail-probability computation.

    trials == 0 means `probability` is exact (multiset enumeration);
    otherwise it is an empirical frequency and stderr its standard
    error estimate sqrt(p(1-p)/trials).
    """

    probability: float
    bound: float
    n: int
    trials: int
    seed: int
    method: str
    stderr: float = 0.0

    def to_json(self) -> dict:
        return {
            "exact_or_empirical": self.probability,
            "bound": self.bound,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "method": self.method,
            "stderr": self.stderr,
        }


class OperatorRV:
    """Finitely supported random Hermitian matrix."""

    def __init__(self, probs, values):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty vector")
        self.probs = linalg.check_distribution(p, p.size)
        vals = [linalg.require_hermitian(v, name=f"values[{i}]") for i, v in enumerate(values)]
        if len(vals) != p.size:
            raise ValueError("probs and values must have equal length")
        dims = {v.shape[0] for v in vals}
        if len(dims) != 1:
            raise ValueError(f"values have mixed dimensions {sorted(dims)}")
        self.values = np.stack(vals)

    @classmethod
    def scalar(cls, probs, values) -> "OperatorRV":
        return cls(probs, [np.array([[v]], dtype=complex) for v in values])

    @classmethod
    def random(cls, seed: int, dim: int, atoms: int) -> "OperatorRV":
        """Seeded RV: `atoms` random effects on C^dim under a random law."""
        linalg.require_positive(atoms=atoms)
        linalg.require_matrices(dim, atoms, "atoms")
        rng = make_rng(seed)
        values = [random_effect(rng, dim) for _ in range(atoms)]
        return cls(random_distribution(rng, atoms), values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def size(self) -> int:
        return self.probs.size

    def mean(self) -> np.ndarray:
        return linalg.hermitize(np.tensordot(self.probs, self.values, axes=1))

    def variance(self) -> np.ndarray:
        m = self.mean()
        sq = np.tensordot(self.probs, self.values @ self.values, axes=1)
        return linalg.hermitize(sq - m @ m)

    def convolve(self, other: "OperatorRV") -> "OperatorRV":
        """Distribution of X + Y for independent X, Y."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in convolution")
        probs = np.outer(self.probs, other.probs).ravel()
        values = (self.values[:, None] + other.values[None, :]).reshape(-1, self.dim, self.dim)
        return OperatorRV(probs, list(values))

    def in_unit_interval(self) -> bool:
        return bool(linalg.relative_margin(self.values, 0.0, 1.0)[2].all())

    def whitened(self, shift, scale) -> "OperatorRV":
        """The RV of scale (X - shift) scale, with the very same probs (no renormalization).

        A sum of n whitened draws is scale (S - n shift) scale, so an interval
        event on S is decided on one spectrum (linalg.relative_margin).
        """
        out = copy.copy(self)
        out.values = linalg.hermitize(scale @ (self.values - shift) @ scale)
        return out

    def to_json(self) -> dict:
        return {
            "probs": self.probs.tolist(),
            "values": [linalg.matrix_to_json(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorRV":
        return cls(obj["probs"], [linalg.matrix_from_json(v) for v in obj["values"]])


# ---------------------------------------------------------------------------
# exact enumeration / Monte Carlo engines


def _num_multisets(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def _multiset_prob(probs: np.ndarray, counts, n_factorial: int) -> float:
    coeff = n_factorial
    for c in counts:
        coeff //= math.factorial(c)
    out = float(coeff)
    for p, c in zip(probs, counts):
        if c:
            out *= p ** c
    return out


def _chunk(rv: OperatorRV) -> int:
    return max(1, ENUMERATION_CHUNK_ENTRIES // max(rv.dim**2, rv.size))


def _event_hits(rv: OperatorRV, counts: np.ndarray, event) -> np.ndarray:
    """event on the sums counts @ rv.values of an (N, k) count array: N booleans.

    Each product takes one block of _chunk(rv) count vectors, so its
    complex copy of the counts stays within the entry budget.  event
    maps a stack (S, d, d) of sums to booleans and sees whole blocks,
    up to ENUMERATION_CHUNK_ENTRIES // d^2 sums per call: with many
    atoms a block holds only a few sums, and one call per block would
    pay the event's cost per call thousands of times.  Blocks start at
    multiples of _chunk(rv) whatever the stack size, so the sums do not
    change with it.
    """
    rows = _chunk(rv)
    stack = max(1, ENUMERATION_CHUNK_ENTRIES // rv.dim**2 // rows) * rows
    hits = np.empty(len(counts), dtype=bool)
    for start in range(0, len(counts), stack):
        part = counts[start:start + stack]
        sums = [np.tensordot(part[i:i + rows], rv.values, axes=1) for i in range(0, len(part), rows)]
        # one block is the common case (atoms <= d^2): no copy
        sums = sums[0] if len(sums) == 1 else np.concatenate(sums)
        hits[start:start + stack] = event(linalg.hermitize(sums))
    return hits


def exact_tail(rv: OperatorRV, n: int, event) -> float:
    """Exact Pr{event(X_1 + ... + X_n)} by multiset enumeration.

    event maps a stack (N, d, d) of sums to N booleans; it sees the
    compositions in lexicographic order, one chunk per call, and the
    probabilities of the hits are added in that order.
    """
    linalg.require_size(
        "n", _num_multisets(n, rv.size), MAX_ENUMERATION,
        "enumeration size overflow: i.i.d. sum has too many distinct "
        "multisets; pass trials > 0 for Monte Carlo",
    )
    total = 0.0
    n_factorial = math.factorial(n)
    for block in linalg.compositions(n, rv.size, _chunk(rv)):
        for counts in block[_event_hits(rv, block, event)].tolist():
            total += _multiset_prob(rv.probs, counts, n_factorial)
    return min(1.0, total)


def _draw_counts(rng, probs: np.ndarray, n: int, trials: int) -> np.ndarray:
    """(atoms, trials) counts of the draws of rng.choice(atoms, (trials, n), p=probs).

    choice bins the uniforms u = rng.random((trials, n)) by the steps of
    cdf = probs.cumsum() / its last entry: a draw is atom j when
    cdf[j - 1] <= u < cdf[j].  So the counts come off the same stream
    without choice's binary search per draw.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random((trials, n))
    k = probs.size
    if k > MC_COMPARE_ATOMS:
        idx = cdf.searchsorted(u, side="right")
        flat = (np.arange(trials)[:, None] * k + idx).ravel()
        return np.bincount(flat, minlength=trials * k).reshape(trials, k).T
    # reached[j] counts a trial's draws at or above cdf[j - 1]; with the
    # draws of each trial down a column, each pass sums whole rows
    u = np.ascontiguousarray(u.T)
    reached = np.empty((k + 1, trials), dtype=np.int64)
    reached[0], reached[k] = n, 0
    for j in range(k - 1):
        reached[j + 1] = (u >= cdf[j]).sum(axis=0, dtype=np.int32)  # n < 2^31 by the size cap
    return reached[:-1] - reached[1:]


def _group_columns(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct columns of (atoms, trials) counts in [0, n].

    first indexes one trial per distinct count vector, in lexicographic
    order of the vectors, and inverse maps every trial to its vector.  The
    int64 key reads the counts in radix n + 1 and is re-ranked (an order
    preserving relabel to 0..distinct - 1) before it could overflow, so the
    grouping is exact for any n and any number of atoms.
    """
    radix = n + 1
    room = (np.iinfo(np.int64).max - n) // radix
    key = np.zeros(counts.shape[1], dtype=np.int64)
    top = 0  # largest value key can hold
    for column in counts:
        if top > room:
            distinct, key = np.unique(key, return_inverse=True)
            top = len(distinct) - 1
            if top == len(key) - 1:  # all trials apart: later atoms cannot merge or reorder them
                break
        key = key * radix + column
        top = top * radix + n
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def mc_tail(rv: OperatorRV, n: int, trials: int, seed: int, event) -> tuple[float, float]:
    """Empirical Pr{event} over `trials` i.i.d. sums; returns (p, stderr).

    The stream is the uniforms of make_rng(seed).random((trials, n)),
    binned by the steps of the cdf of rv.probs: the stream of
    rng.choice(rv.size, (trials, n), p=rv.probs), so every trial draws the
    count vector that choice would give it.  event maps a stack (N, d, d)
    of sums to N booleans.  It sees each distinct count vector of the drawn
    sums once, in lexicographic order and in chunks, and every trial takes
    the decision of its count vector.
    """
    if trials <= 0:
        raise DomainError("trials must be positive for Monte Carlo", "trials")
    # the uniforms hold trials x n entries and the counts trials x atoms; the
    # sums are stacked one chunk at a time, so the trials x d x d term is
    # stricter than memory needs
    linalg.require_size("trials", trials * max(n, rv.dim**2, rv.size), linalg.MAX_TENSOR_DIM**2)
    counts = _draw_counts(make_rng(seed), rv.probs, n, trials)
    first, inverse = _group_columns(counts, n)
    hits = _event_hits(rv, np.ascontiguousarray(counts[:, first].T), event)[inverse]
    p = float(np.mean(hits))
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return p, stderr


def _dispatch(rv, n, trials, seed, event, bound, method, proven: bool) -> TailReport:
    """Exact (trials == 0) or Monte Carlo tail of one event: stack of sums in, booleans out."""
    if trials == 0:
        p = exact_tail(rv, n, event)
        if proven:
            linalg.check_bound(f"exact {method} tail exceeds its proven bound", p, bound, 1e-9)
        return TailReport(p, bound, n, 0, seed, method)
    p, stderr = mc_tail(rv, n, trials, seed, event)
    return TailReport(p, bound, n, trials, seed, method + "-mc", stderr)


# ---------------------------------------------------------------------------
# the bounds themselves


def markov_tail(rv: OperatorRV, a) -> TailReport:
    """Operator Markov: Pr{X not <= A} <= Tr(mean * pinv(A)).

    If supp(A) does not contain supp(mean) the bound is vacuous and the
    report is flagged trivial (bound = inf) rather than failing.  One
    eigh of A gives its PSD check, its support (eigenvalues above the
    PSD tolerance in modulus) and the pseudo-inverse on that support
    alone; the mean's PSD check gives the tolerance of the containment
    test ||mean - P mean P|| <= tol, P the support projector.
    """
    linalg.require_finite(a, "a")
    a = linalg.require_hermitian(a, name="A")
    w, u = linalg.eigh(a)
    tol = linalg.spectral_tolerance(w)
    if not w[0] >= -tol:
        raise DomainError("A must be PSD", "a")
    m = rv.mean()
    least, mean_tol = linalg.psd_margin(m)
    if not least >= -mean_tol:
        raise DomainError("markov_tail needs a PSD-valued random variable", "rv")
    hits = ~linalg.psd_leq(rv.values, a)
    exact = min(1.0, sum(rv.probs[hits].tolist(), 0.0))
    kept = np.abs(w) > tol
    support = linalg.hermitize((u * kept.astype(float)) @ u.conj().T)
    if not linalg.spectral_norm(m - support @ m @ support) <= mean_tol:
        return TailReport(exact, math.inf, 1, 0, 0, "markov-trivial")
    inverse = np.zeros_like(w)
    inverse[kept] = w[kept] ** -1.0
    bound = float(np.trace(m @ linalg.hermitize((u * inverse) @ u.conj().T)).real)
    linalg.check_bound("exact markov tail exceeds its bound", exact, bound, 1e-9)
    return TailReport(exact, bound, 1, 0, 0, "markov")


def chebyshev_tail(rv: OperatorRV, delta) -> TailReport:
    """Operator Chebyshev: Pr{|X - M| not <= Delta} <= Tr(S^2 Delta^-2)."""
    linalg.require_finite(delta, "delta")
    delta = linalg.require_hermitian(delta, name="Delta")
    if linalg.min_eigenvalue(delta) <= linalg.PSD_TOL:
        raise DomainError("Delta must be positive definite", "delta")
    m = rv.mean()
    hits = ~linalg.psd_leq(np.stack([linalg.abs_herm(x - m) for x in rv.values]), delta)
    exact = min(1.0, sum(rv.probs[hits].tolist(), 0.0))
    s2 = rv.variance()
    bound = float(np.trace(s2 @ linalg.herm_power(delta, -2.0)).real)
    linalg.check_bound("exact chebyshev tail exceeds its bound", exact, bound, 1e-9)
    return TailReport(exact, bound, 1, 0, 0, "chebyshev")


def weak_law_tail(rv: OperatorRV, n: int, delta, trials: int = 0, seed: int = 0) -> TailReport:
    """Pr{(1/n) sum X_i outside [M - Delta, M + Delta]} <= Tr(S^2 Delta^-2)/n."""
    if n < 1:
        raise DomainError("n must be >= 1", "n")
    linalg.require_finite(delta, "delta")
    delta = linalg.require_hermitian(delta, name="Delta")
    if linalg.min_eigenvalue(delta) <= linalg.PSD_TOL:
        raise DomainError("Delta must be positive definite", "delta")
    bound = float(np.trace(rv.variance() @ linalg.herm_power(delta, -2.0)).real) / n
    # Delta^-1/2 (X - M) Delta^-1/2 / n: the sums are Delta^-1/2 (S/n - M) Delta^-1/2
    white = rv.whitened(rv.mean(), linalg.herm_power(delta, -0.5) / math.sqrt(n))

    def event(sums):
        return ~linalg.relative_margin(sums, -1.0, 1.0)[2]

    return _dispatch(white, n, trials, seed, event, bound, "weak-law", proven=True)


def bernstein_bound(rv: OperatorRV, a, t, n: int) -> float:
    """Exponential-moment bound d * || E exp(T(X - A)T) ||^n on the upper tail.

    T must be Hermitian and invertible (T*T > 0); the polar reduction to
    this case is the caller's business.
    """
    a = linalg.require_hermitian(a, name="A")
    t = linalg.require_hermitian(t, name="T")
    if min(abs(w) for w in np.linalg.eigvalsh(t)) <= linalg.PSD_TOL:
        raise ValueError("T must be invertible")
    acc = np.zeros((rv.dim, rv.dim), dtype=complex)
    for p, x in zip(rv.probs, rv.values):
        acc += p * linalg.herm_exp(t @ (x - a) @ t)
    return rv.dim * linalg.spectral_norm(acc) ** n


def chernoff_tail(rv: OperatorRV, n: int, a: float, m: float, side: str = "upper",
                  trials: int = 0, seed: int = 0) -> TailReport:
    """Operator Chernoff bound d * 2^(-n D(a||m)) for [0,1]-valued atoms.

    side="upper": needs mean <= m*1 and 1 >= a >= m >= 0; the event is
    {sum X_i not <= n a 1}.  side="lower" mirrors both (event {sum not
    >= n a 1}, mean >= m*1, a <= m); the exponent is unchanged because
    D(1-a || 1-m) = D(a || m).
    """
    if n < 1:
        raise DomainError("n must be >= 1", "n")
    if not rv.in_unit_interval():
        raise DomainError("chernoff_tail needs atoms in [0, 1]", "rv")
    if not 0.0 <= a <= 1.0:
        raise DomainError("a must lie in [0, 1]", "a")
    if not 0.0 <= m <= 1.0:
        raise DomainError("m must lie in [0, 1]", "m")
    eye = np.eye(rv.dim)
    mean = rv.mean()
    if side == "upper":
        if a < m:
            raise DomainError("upper tail needs a >= m", "a")
        if not linalg.psd_leq(mean, m * eye):
            raise DomainError("upper tail needs mean <= m * identity", "m")
    elif side == "lower":
        if a > m:
            raise DomainError("lower tail needs a <= m", "a")
        if not linalg.psd_leq(m * eye, mean):
            raise DomainError("lower tail needs mean >= m * identity", "m")
    else:
        raise DomainError(f"unknown side {side!r}", "side")

    div = linalg.binary_divergence(a, m)
    bound = 0.0 if math.isinf(div) else rv.dim * 2.0 ** (-n * div)
    target = n * a * eye

    def event(sums):
        if side == "upper":
            return ~linalg.psd_leq(sums, target)
        return ~linalg.psd_leq(target, sums)

    return _dispatch(rv, n, trials, seed, event, bound, f"chernoff-{side}", proven=True)


def two_sided_chernoff(rv: OperatorRV, n: int, eps: float,
                       trials: int = 0, seed: int = 0) -> TailReport:
    """Two-sided bound 2d * 2^(-n eps^2 mu / (2 ln 2)), mu = min eig of the mean."""
    if n < 1:
        raise DomainError("n must be >= 1", "n")
    if not 0.0 <= eps <= 0.5:
        raise DomainError("eps must lie in [0, 1/2]", "eps")
    if not rv.in_unit_interval():
        raise DomainError("two_sided_chernoff needs atoms in [0, 1]", "rv")
    m = rv.mean()
    mu = linalg.min_eigenvalue(m)
    if mu <= linalg.PSD_TOL:
        raise DomainError("mean must be positive definite (mu > 0)", "rv")
    bound = 2.0 * rv.dim * 2.0 ** (-n * eps * eps * mu / (2.0 * LN2))
    # M^-1/2 X M^-1/2 / n: the sums are M^-1/2 (S/n) M^-1/2
    white = rv.whitened(0.0, linalg.herm_power(m, -0.5) / math.sqrt(n))

    def event(sums):
        return ~linalg.relative_margin(sums, 1.0 - eps, 1.0 + eps)[2]

    # proven=False: the quadratic simplification of the exponent is
    # not a lower bound on D((1+eps)mu || mu) when mu < ~0.117, so the
    # displayed constant can undershoot the true tail in that corner.
    # The report carries both numbers; callers compare where it applies.
    return _dispatch(white, n, trials, seed, event, bound, "two-sided", proven=False)


# ---------------------------------------------------------------------------
# numeric probes for the open conjectures (reported, never asserted)


@dataclass
class ConjectureReport:
    which: int
    dim: int
    instances: int
    min_slack: float
    violations: int
    slacks: list = field(default_factory=list)
    details: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "dim": self.dim,
            "instances": self.instances,
            "min_slack": self.min_slack,
            "violations": self.violations,
            "slacks": self.slacks,
            "details": self.details,
        }


def _probe_product_trace(rng, dim: int) -> tuple[float, dict]:
    # Tr E exp(Z1 + Z2) vs Tr((E exp Z)^2); slack >= 0 is a theorem at
    # n = 2 (term-by-term Golden-Thompson), probed numerically anyway.
    k = int(rng.integers(2, 4))
    probs = rng.dirichlet(np.ones(k))
    atoms = [random_hermitian(rng, dim) for _ in range(k)]
    lhs = 0.0
    for pi, zi in zip(probs, atoms):
        for pj, zj in zip(probs, atoms):
            lhs += pi * pj * float(np.trace(linalg.herm_exp(zi + zj)).real)
    avg = sum(p * linalg.herm_exp(z) for p, z in zip(probs, atoms))
    rhs = float(np.trace(avg @ avg).real)
    return rhs - lhs, {"lhs": lhs, "rhs": rhs, "support": k}


def _probe_log_sum_exp(rng, dim: int) -> tuple[float, dict]:
    # min eig of log(sum exp A) + log(sum exp B) - log(sum exp(A_i + B_j)).
    na, nb = (int(rng.integers(2, 4)) for _ in range(2))
    fam_a = [random_hermitian(rng, dim) for _ in range(na)]
    fam_b = [random_hermitian(rng, dim) for _ in range(nb)]
    cross = sum(linalg.herm_exp(ai + bj) for ai in fam_a for bj in fam_b)
    lhs = linalg.herm_log(cross, base=math.e)
    rhs = (linalg.herm_log(sum(linalg.herm_exp(a) for a in fam_a), base=math.e)
           + linalg.herm_log(sum(linalg.herm_exp(b) for b in fam_b), base=math.e))
    slack = linalg.min_eigenvalue(rhs - lhs)
    return slack, {"family_sizes": [na, nb]}


def _probe_divergence_tail(rng, dim: int) -> tuple[float, dict]:
    # Conjectured Tr exp(-n * Dop(A || M)) against the exact tail of a
    # small i.i.d. sum; Dop evaluated in nats to pair with natural exp.
    k = int(rng.integers(2, 4))
    probs = rng.dirichlet(np.ones(k))
    atoms = [random_effect(rng, dim) for _ in range(k)]
    rv = OperatorRV(probs, atoms)
    mean = rv.mean()
    w = np.linalg.eigvalsh(mean)
    if w[0] < 1e-3 or w[-1] > 1.0 - 1e-3:  # keep M strictly inside (0, 1)
        mean = 0.9 * mean + 0.05 * np.eye(dim)
        atoms = [0.9 * x + 0.05 * np.eye(dim) for x in atoms]
        rv = OperatorRV(probs, atoms)
        mean = rv.mean()
    theta = float(rng.uniform(0.2, 0.8))
    a_op = (1.0 - theta) * mean + theta * np.eye(dim)
    n = int(rng.integers(2, 6))
    div_nats = LN2 * linalg.operator_divergence(a_op, mean)
    conj_bound = float(np.trace(linalg.herm_exp(-n * div_nats)).real)
    target = n * a_op
    exact = exact_tail(rv, n, lambda s: ~linalg.psd_leq(s, target))
    aux = {"n": n, "theta": theta, "conjectured": conj_bound, "exact": exact}
    a_scalar = linalg.min_eigenvalue(a_op)
    m_scalar = linalg.spectral_norm(mean)
    if a_scalar >= m_scalar:
        aux["chernoff"] = dim * 2.0 ** (-n * linalg.binary_divergence(a_scalar, m_scalar))
    return conj_bound - exact, aux


_PROBES = {1: _probe_product_trace, 2: _probe_log_sum_exp, 3: _probe_divergence_tail}


def conjecture_probe(which: int, dim: int, count: int, seed: int) -> ConjectureReport:
    """Sample random instances of one of the open matrix inequalities.

    Returns per-instance slacks (negative slack = observed violation).
    This is a probe: nothing here asserts that a conjecture is true.
    """
    if which not in _PROBES:
        raise DomainError(f"unknown conjecture {which}; expected 1, 2 or 3", "which")
    if not 1 <= dim <= 6:
        raise DomainError("dim must lie in 1..6", "dim")
    if not count >= 1:
        raise DomainError(f"count must lie in 1..{MAX_PROBE_COUNT}", "count")
    linalg.require_size("count", count, MAX_PROBE_COUNT, f"count must lie in 1..{MAX_PROBE_COUNT}")
    probe = _PROBES[which]
    slacks: list[float] = []
    details: list[dict] = []
    violations = 0
    for sub in spawn_seeds(seed, count):
        rng = make_rng(sub)
        slack, aux = probe(rng, dim)
        slacks.append(float(slack))
        details.append(aux)
        if slack < -1e-9:
            violations += 1
    return ConjectureReport(
        which=which,
        dim=dim,
        instances=count,
        min_slack=min(slacks),
        violations=violations,
        slacks=slacks,
        details=details,
    )
