"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's own code paths: exact rational
binomial sums, brute-force product-space enumeration, direct grid
searches.  Slow is fine here.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, sqrt

import numpy as np
from scipy.optimize import linprog


def binom_pmf(n: int, k: int, p: Fraction) -> Fraction:
    return Fraction(comb(n, k)) * p**k * (1 - p) ** (n - k)


def binom_tail_ge(n: int, k0: int, p: Fraction = Fraction(1, 2)) -> Fraction:
    return sum(binom_pmf(n, k, p) for k in range(max(k0, 0), n + 1))


def binom_tail_le(n: int, k0: int, p: Fraction = Fraction(1, 2)) -> Fraction:
    return sum(binom_pmf(n, k, p) for k in range(0, min(k0, n) + 1))


def classical_capacity_oracle(w, tol=1e-8, max_iter=500_000):
    """Blahut fixed point in plain probability space (no eigensolves).

    tol is a certified duality gap, so 1e-8 keeps the answer within
    1e-8 of the true capacity even when near-identical rows make the
    iteration crawl (the multiplier is 1 + O(capacity) there).
    """
    w = np.asarray(w, dtype=float)
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    for _ in range(max_iter):
        q = p @ w
        safe = np.where(w > 0.0, w / np.where(q > 0.0, q, 1.0), 1.0)
        div = (np.where(w > 0.0, w * np.log2(safe), 0.0)).sum(axis=1)
        lower = float(p @ div)
        upper = float(div.max())
        if upper - lower <= tol:
            return lower
        p = p * np.exp2(div - upper)
        p = p / p.sum()
    raise AssertionError("classical oracle did not converge")


def blahut_arimoto_capacity(states, tol=1e-9, max_iter=500_000):
    """Holevo capacity by plain Blahut-Arimoto multiplicative ascent.

    Each round scales p(x) by 2^{D(W_x || sigma)} and renormalizes; the
    loop stops once the duality gap max_x D(W_x || sigma) - I(P) is at
    most tol and returns I(P) in bits, within tol of the capacity.
    Kernel directions of sigma are skipped: from the uniform start the
    multiplicative update keeps every letter inside sigma's support.
    """
    states = np.asarray(states, dtype=complex)
    spectra = np.clip(np.linalg.eigvalsh(states), 1e-300, 1.0)
    entropies = -(spectra * np.log2(spectra)).sum(axis=1)
    p = np.full(len(states), 1.0 / len(states))
    for _ in range(max_iter):
        s, v = np.linalg.eigh(np.tensordot(p, states, axes=1))
        pos = s > 1e-15
        weights = np.clip(np.einsum("ji,xjk,ki->xi", v.conj(), states, v).real, 0.0, None)
        div = -entropies - weights[:, pos] @ np.log2(s[pos])
        info = float(p @ div)
        if div.max() - info <= tol:
            return info
        p = p * np.exp2(div - div.max())
        p = p / p.sum()
    raise AssertionError("Blahut-Arimoto oracle did not converge")


def product_fractional_cover(edges, n, tol=1e-9, max_rounds=2000):
    """Fractional covering number of the n-fold tensor power, by its own LP.

    Solves min sum(v) over v >= 0 with sum_w v_w E_w >= identity over
    all m^n dense product edges E_w = E_w1 (x) ... (x) E_wn, by cutting
    planes: cuts <psi|.|psi> >= 1 start from the eigenbasis of the
    edge sum and grow by every eigenvector of the weighted degree below
    1.  Returns sum(v) / lam once its least eigenvalue lam reaches
    1 - tol, a feasible value at most a factor 1/(1 - tol) above the
    optimum.  Exponential in n, so only n <= 3.
    """
    if not 1 <= n <= 3:
        raise ValueError("the product LP oracle takes n in 1..3")
    edges = [np.asarray(e, dtype=complex) for e in edges]
    stack = np.array([functools.reduce(np.kron, w) for w in itertools.product(edges, repeat=n)])
    cuts = list(np.linalg.eigh(stack.sum(axis=0))[1].T)
    for _ in range(max_rounds):
        rows = [-np.real(np.einsum("i,kij,j->k", c.conj(), stack, c)) for c in cuts]
        res = linprog(np.ones(len(stack)), A_ub=np.array(rows), b_ub=-np.ones(len(rows)),
                      bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        if not res.success:
            raise AssertionError(f"product LP oracle failed: {res.message}")
        w, u = np.linalg.eigh(np.tensordot(res.x, stack, axes=1))
        if w[0] >= 1.0 - tol:
            return float(res.x.sum() / w[0])
        cuts.extend(u[:, w < 1.0].T)
    raise AssertionError("product LP oracle did not converge")


def brute_force_tail(probs, values, n, event) -> float:
    """Pr{event(sum)} by full product-space enumeration (k^n terms)."""
    total = 0.0
    values = [np.asarray(v, dtype=complex) for v in values]
    for assignment in itertools.product(range(len(probs)), repeat=n):
        s = sum(values[i] for i in assignment)
        if event(s):
            prob = 1.0
            for i in assignment:
                prob *= probs[i]
            total += prob
    return total


def typical_set_by_loop(p, n: int, alpha: float) -> set:
    """Typical sequences by walking all a^n sequences and counting symbols one by one.

    A sequence is kept when |N(x|seq) - n p(x)| <= alpha sqrt(n p(x) (1 - p(x)))
    for every symbol x, with the window arithmetic the library uses.
    """
    p = np.asarray(p, dtype=float)
    a = p.size
    targets = n * p
    widths = alpha * np.sqrt(n * np.clip(p * (1.0 - p), 0.0, None))
    members = set()
    for seq in itertools.product(range(a), repeat=n):
        counts = [0] * a
        for x in seq:
            counts[x] += 1
        if all(abs(counts[x] - targets[x]) <= widths[x] for x in range(a)):
            members.add(seq)
    return members


def per_trial_mc_tail(probs, values, n, trials, rng, event) -> tuple[float, float]:
    """Monte Carlo tail with one sum per trial: (p, stderr) of event over all trials.

    Draws atom indices with rng.choice, the reference stream that the
    library's mc_tail must match, counts each atom in its own pass and
    forms every trial's sum with one einsum.
    """
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=complex)
    idx = rng.choice(probs.size, size=(trials, n), p=probs)
    counts = np.zeros((trials, probs.size))
    for j in range(probs.size):
        counts[:, j] = (idx == j).sum(axis=1)
    sums = np.einsum("tk,kij->tij", counts, values)
    p = float(np.mean(event((sums + sums.conj().swapaxes(-1, -2)) / 2)))
    return p, sqrt(max(p * (1.0 - p), 0.0) / trials)


def multinomial_pmf(n: int, counts, probs) -> float:
    coeff = 1
    rest = n
    for c in counts:
        coeff *= comb(rest, c)
        rest -= c
    out = float(coeff)
    for p, c in zip(probs, counts):
        out *= p**c
    return out


def half_integer_sum_pmf(probs, n: int) -> list[Fraction]:
    """Exact law of a sum of n i.i.d. draws from {0, 1/2, 1}.

    probs are the Fraction probabilities of 0, 1/2 and 1; entry h of the
    result is Pr{sum = h/2}, by a dynamic program over the half-units.
    """
    pmf = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (len(pmf) + 2)
        for h, mass in enumerate(pmf):
            for step, p in enumerate(probs):
                nxt[h + step] += mass * p
        pmf = nxt
    return pmf


def range_basis(proj) -> np.ndarray:
    """Range columns of a factored typical projector, one Kronecker product per column.

    Column i is the product eigenvector at flat index proj.mask[i]
    (first factor most significant); None bases are standard bases.
    """
    bases = [np.eye(d) if b is None else b for b, d in zip(proj.factor_bases, proj.factor_dims)]
    cols = np.zeros((proj.dim, proj.rank), dtype=complex)
    for i, flat in enumerate(proj.mask):
        v = np.ones(1, dtype=complex)
        for b, k in zip(bases, np.unravel_index(int(flat), proj.factor_dims)):
            v = np.kron(v, b[:, k])
        cols[:, i] = v
    return cols


def dense_projector(proj) -> np.ndarray:
    """Dense dim x dim projector onto the range of a factored typical projector."""
    basis = range_basis(proj)
    pi = basis @ basis.conj().T
    return (pi + pi.conj().T) / 2


def assert_same_sample(a, b, tol=1e-12):
    """Two quantum-sample results agree: draws exactly, figures within tol."""
    assert a.edge_multiplicities == b.edge_multiplicities
    assert (a.num_draws, a.certified, a.attempts) == (b.num_draws, b.certified, b.attempts)
    for key in ("excluded_mass", "l1_distance", "sandwich_lower_slack", "sandwich_upper_slack"):
        assert abs(a.details[key] - b.details[key]) <= tol, key
    for x, y in ((a.sampled_average, b.sampled_average), (a.pi0, b.pi0), (a.pi1, b.pi1)):
        assert np.abs(x - y).max() <= tol


def dense_mixture(weights, channel) -> np.ndarray:
    """sum_xn w_xn W_{x_1} (x) ... (x) W_{x_n}, one dense product per atom."""
    from opcover.channels import tensor_output

    items = sorted(dict(weights).items())
    out = np.zeros_like(tensor_output(items[0][0], channel))
    for xn, w in items:
        out = out + float(w) * tensor_output(xn, channel)
    return out
