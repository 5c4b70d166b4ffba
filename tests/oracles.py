"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's own code paths: exact rational
binomial sums, brute-force product-space enumeration, direct grid
searches.  Slow is fine here.  The last section holds the helpers only
tests use (a replay of covering results, exact distribution equality,
the resolvability stages in Fraction arithmetic,
Holevo information, the exponential-moment bound, random pure states),
kept out of the library because no command reaches them.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, floor, fsum, log, log2, sqrt

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


def _hermitian_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _scaled_tolerance(w, tol=1e-9):
    return tol * np.maximum(1.0, np.abs(w).max(axis=-1))


def _is_psd(a, tol=1e-9) -> np.ndarray:
    w = np.linalg.eigvalsh(_hermitian_part(a))
    return w[..., 0] >= -_scaled_tolerance(w, tol)


def in_operator_interval(x, lower, upper, tol=1e-9):
    """lower <= x <= upper in the Loewner order, from two eigensolves; stacks broadcast.

    Each difference x - lower and upper - x passes when its least
    eigenvalue is >= -tol * max(1, its spectral norm).
    """
    return _is_psd(np.subtract(x, lower), tol) & _is_psd(np.subtract(upper, x), tol)


def support_projector(a) -> np.ndarray:
    """Projector onto the eigenvectors of a whose eigenvalues exceed its PSD tolerance in modulus.

    The tolerance comes from one spectrum and the eigenbasis from a second eigensolve.
    """
    m = _hermitian_part(a)
    tol = float(_scaled_tolerance(np.linalg.eigvalsh(m)))
    w, u = np.linalg.eigh(m)
    return _hermitian_part((u * (np.abs(w) > tol).astype(float)) @ u.conj().T)


def supports_contained(a, b) -> bool:
    """supp(a) within supp(b), both PSD: ||a - P a P|| <= a's PSD tolerance, P = support_projector(b)."""
    pb = support_projector(b)
    m = _hermitian_part(a)
    resid = np.linalg.eigvalsh(_hermitian_part(m - pb @ m @ pb))
    return float(np.abs(resid).max(initial=0.0)) <= float(_scaled_tolerance(np.linalg.eigvalsh(m)))


def support_inverse(a) -> np.ndarray:
    """Pseudo-inverse of a PSD matrix on its support, from its own eigh.

    Only eigenvalues above the PSD tolerance are inverted (the support of
    support_projector); those below it are rounding, not support.
    """
    w, u = np.linalg.eigh(_hermitian_part(a))
    keep = np.abs(w) > _scaled_tolerance(w)
    out = np.zeros_like(w)
    out[keep] = w[keep] ** -1.0
    return _hermitian_part((u * out) @ u.conj().T)


def markov_by_support_checks(probs, values, a) -> tuple:
    """Operator Markov tail (probability, bound, method), one eigensolve per question.

    A's PSD check, the mean's PSD check, the tail event, A's support
    projector, the containment of the mean's support in it and A's
    pseudo-inverse each solve afresh (eight eigensolves).  An empty
    containment gives the vacuous bound inf and method markov-trivial.
    """
    probs = np.asarray(probs, dtype=float)
    a = _hermitian_part(a)
    mean = _hermitian_part(np.tensordot(probs, values, axes=1))
    if not _is_psd(a) or not _is_psd(mean):
        raise ValueError("A and the mean must be PSD")
    hits = ~_is_psd(np.subtract(a, values))
    exact = min(1.0, sum(probs[hits].tolist(), 0.0))
    if not supports_contained(mean, a):
        return exact, float("inf"), "markov-trivial"
    return exact, float(np.trace(mean @ support_inverse(a)).real), "markov"


def vertex_covering_sample(weights, p, eps, tau, seed, eta, draws=None) -> dict:
    """The classical covering sampler, vertex by vertex: the reference for diagonal graphs.

    weights[j] is edge j's measure on the V vertices (the diagonal of a
    diagonal edge).  Vertices where the mixture q = sum_j p_j weights[j]
    is below tau / V are set aside; on the rest the multiset average
    qbar has to lie within a factor (1 +- eps) of q, vertex by vertex,
    up to 1e-9 * max(1, largest gap).  Draws follow the library's seed
    schedule: attempt i multinomially draws base * 2^(i // RETRY_SEEDS)
    edges from the i-th spawned sub-seed, with base
    floor(1 + eta V (2 ln2 log2(2V)) / (eps^2 tau)) (1 for a point mass)
    unless prescribed, over ESCALATION_STAGES stages (one when
    prescribed).  Returns the accepted attempt's figures; raises
    RuntimeError once every attempt failed.
    """
    from opcover.covering import ESCALATION_STAGES, RETRY_SEEDS
    from opcover.rng import make_rng, seed_stream

    weights = np.asarray(weights, dtype=float)
    p = np.asarray(p, dtype=float)
    p = p / float(p.sum())
    nv = weights.shape[1]
    q = np.zeros(nv)
    for e, w in enumerate(weights):
        q += p[e] * w
    keep = q >= tau / nv
    formula = 1.0 + eta * nv * (2.0 * log(2.0) * log2(2.0 * nv)) / (eps * eps * tau)
    if draws is not None:
        base, stages = draws, 1
    elif np.count_nonzero(p) == 1:
        base, stages = 1, ESCALATION_STAGES
    else:
        base, stages = max(1, floor(formula)), ESCALATION_STAGES

    def within(lo, hi):
        gap = hi - lo
        return gap.size == 0 or gap.min() >= -1e-9 * max(1.0, float(np.abs(gap).max()))

    subs = seed_stream(seed)
    for i in range(RETRY_SEEDS * stages):
        scale = 2 ** (i // RETRY_SEEDS)
        ln = base * scale
        counts = make_rng(next(subs)).multinomial(ln, p)
        qbar = np.zeros(nv)
        for e, w in enumerate(weights):
            qbar += float(counts[e]) * w
        qbar /= float(ln)
        if within((1.0 - eps) * q[keep], qbar[keep]) and within(qbar[keep], (1.0 + eps) * q[keep]):
            return {
                "edge_multiplicities": {int(j): int(c) for j, c in enumerate(counts) if c},
                "num_draws": ln,
                "attempts": i + 1,
                "scale": scale,
                "certified": not (ln > formula and draws is None),
                "mixture": q,
                "sampled_average": qbar,
                "cut_vertices": tuple(int(v) for v in np.flatnonzero(~keep)),
                "excluded_mass": float(q[~keep].sum()),
                "draw_bound": formula,
                "l1_distance": float(np.abs(q - qbar).sum()),
            }
    raise RuntimeError(f"sampling budget exhausted after {RETRY_SEEDS * stages} attempts")


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
    library's mc_tail must match, counts every draw with one unbuffered
    np.add.at (not the library's bincount) and forms every trial's sum
    with two real matrix products, one per part of the atoms.  Those sum
    in their own order, so a caller that compares with mc_tail exactly
    uses atoms whose sums are exact in any order (dyadic entries).
    """
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=complex)
    idx = rng.choice(probs.size, size=(trials, n), p=probs)
    counts = np.zeros((trials, probs.size))
    np.add.at(counts, (np.arange(trials)[:, None], idx), 1.0)
    flat = values.reshape(probs.size, -1)
    sums = (counts @ flat.real + 1j * (counts @ flat.imag)).reshape(trials, *values.shape[1:])
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


def conditional_mask_all_factors(systems, xn, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Conditional typical (mask, probs) by testing every block on all d^n digit arrays.

    systems maps each symbol to (eigenvalues, basis, class ids, class
    masses), as CQChannel.systems holds them.  A product index is
    kept when each symbol's block, the positions carrying it, has its
    class counts within the windows the library uses; probs are running
    products of the clipped eigenvalues in factor order.
    """
    dims = tuple(len(systems[x][0]) for x in xn)
    digits = np.indices(dims).reshape(len(dims), -1)
    ok = np.ones(digits.shape[1], dtype=bool)
    for x in sorted(set(xn)):
        _, _, ids, masses = systems[x]
        positions = [i for i, s in enumerate(xn) if s == x]
        m = len(positions)
        targets = m * masses
        widths = alpha * np.sqrt(m * np.clip(masses * (1.0 - masses), 0.0, None))
        classes = np.asarray(ids)[digits[positions]]
        for c in range(len(targets)):
            ok &= np.abs((classes == c).sum(axis=0) - targets[c]) <= widths[c]
    mask = np.flatnonzero(ok)
    probs = np.ones(mask.size)
    for x, k in zip(xn, digits[:, mask]):
        values = np.asarray(systems[x][0], dtype=float)
        probs = probs * np.where(values > 0.0, values, 0.0)[k]
    return mask, probs


def range_permutation_one_sequence(proj, xn, ys) -> np.ndarray:
    """Where proj's range vectors land when xn is rearranged to ys, for one sequence.

    The factor at position i of xn moves to position source[i] of ys
    (stable among equal symbols), so range vector j becomes j' with
    j'[source] = j; perm[j] is the index of j' in proj's range, which
    it must not leave.
    """
    source = np.empty(len(xn), dtype=int)
    source[np.argsort(xn, kind="stable")] = np.argsort(ys, kind="stable")
    moved = np.empty_like(proj.digits)
    moved[source] = proj.digits
    keys = np.ravel_multi_index(moved, proj.factor_dims)
    perm = np.searchsorted(proj.mask, keys)
    assert np.array_equal(proj.mask[perm], keys), xn
    return perm


def range_basis(proj) -> np.ndarray:
    """Range columns of a factored typical projector, one Kronecker product per column.

    Column i is the product eigenvector at flat index proj.mask[i]
    (first factor most significant).
    """
    cols = np.zeros((proj.dim, proj.rank), dtype=complex)
    for i, flat in enumerate(proj.mask):
        v = np.ones(1, dtype=complex)
        for b, k in zip(proj.factor_bases, np.unravel_index(int(flat), proj.factor_dims)):
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


def spectral_walk(g, p, eps, tau, seed, draws):
    """The covering sampler's spectral test alone, attempt by attempt, at a prescribed draw count.

    Returns (counts, attempts, (lower, upper) relative slacks, l1 distance)
    of the first attempt of the budget whose whitened average has its
    spectrum in [1 - eps, 1 + eps], or None when every attempt fails.  No
    ratio certificate: every attempt gets the eigensolve.
    """
    from opcover import covering, linalg
    from opcover.rng import make_rng

    p = linalg.check_distribution(p, g.num_edges)
    rho = linalg.hermitize(g.span_combination(p))
    w, u = linalg.eigh(rho)
    keep = w >= tau / g.dim
    whiten = u[:, keep] / np.sqrt(w[keep])
    for attempts, _, sub in covering._attempt_schedule(seed, 1):
        counts = make_rng(sub).multinomial(draws, p)
        rhobar = linalg.hermitize(g.span_combination(counts) / float(draws))
        lower, upper, inside = linalg.relative_margin(
            whiten.conj().T @ rhobar @ whiten, 1.0 - eps, 1.0 + eps)
        if inside:
            return counts, attempts, (float(lower), float(upper)), linalg.trace_norm(rho - rhobar)
    return None


# ---------------------------------------------------------------------------
# helpers only tests use


def counts_vector(result, num_edges: int) -> np.ndarray:
    """A covering result's edge multiplicities as a length-num_edges count vector."""
    counts = np.zeros(num_edges, dtype=np.int64)
    for i, c in result.edge_multiplicities.items():
        counts[int(i)] = c
    return counts


def replay_covering_result(g, result, p=None, eps: float | None = None, tau: float | None = None) -> dict:
    """Re-verify a (possibly tampered) covering result against its hypergraph.

    Returns named check booleans plus "all"; a certified result must
    replay clean.  Sample results need the p, eps, tau they were drawn
    with.
    """
    from opcover import covering, linalg

    counts = counts_vector(result, g.num_edges)
    if result.kind == "randomized-covering":
        deg = covering._degree_from_counts(g, counts)
        checks = {
            "is_covering": linalg.psd_leq(np.eye(g.dim), deg),
            "average_matches": bool(np.allclose(deg, result.sampled_average, atol=1e-10)),
        }
    elif result.kind == "quantum-sample":
        if p is None or eps is None or tau is None:
            raise ValueError("replaying a sample needs p, eps and tau")
        formula = covering.draw_bound(g.eta, g.dim, eps, tau)
        # Infer whether the draw count was prescribed: the default path
        # always lands on base * scale.  (A prescribed count's single
        # stage spawns the same first RETRY_SEEDS sub-seeds as the
        # escalating stages, so either way the replay walks the original
        # attempt sequence.)
        base, _ = covering._sample_plan(formula, linalg.check_distribution(p, g.num_edges), None)
        scale = 2 ** ((result.attempts - 1) // covering.RETRY_SEEDS)
        default_path = result.num_draws == base * scale
        fresh = covering.quantum_covering_sample(
            g, p, eps, tau, result.seed, draws=None if default_path else result.num_draws
        )
        checks = {
            "reproduces": fresh.edge_multiplicities == result.edge_multiplicities
            and fresh.num_draws == result.num_draws,
            "average_matches": bool(
                np.allclose(fresh.sampled_average, result.sampled_average, atol=1e-10)
            ),
            "still_certifies": fresh.certified == result.certified,
        }
    else:
        raise ValueError(f"unknown result kind {result.kind!r}")
    checks["all"] = all(checks.values())
    return checks


def distributions_identical(p, q) -> bool:
    """Exact equality of two sparse sequence distributions, no tolerance.

    Weights are compared as exact rationals (floats convert exactly),
    so pipeline outputs with denominators dividing K*L are decidably
    distinct the moment any weight differs.
    """

    def canon(dist):
        return {
            tuple(int(s) for s in xn): Fraction(w) for xn, w in dict(dist).items() if w != 0
        }

    return canon(p) == canon(q)


def sparse_weights(reg) -> dict:
    """A RegularizationResult's sparse law as exact Fraction weights, numerators over K*L."""
    return {xn: Fraction(p, reg.K * reg.L) for xn, p in reg.sparse_numerators.items()}


# The resolvability stages in Fraction arithmetic, as the library ran them
# before it carried laws as integer numerators over one denominator: the
# integer path must agree with these exactly.


def fraction_law(entries) -> dict:
    """Validated sequence law: Fraction weights kept, others read as floats, zeros dropped."""
    out = {}
    for key, w in dict(entries).items():
        xn = tuple(int(s) for s in key)
        if not isinstance(w, Fraction):
            w = float(w)
            if not -1e-12 <= w < float("inf"):
                raise ValueError("sequence weights must be nonnegative and finite")
            w = max(0.0, w)
        elif w < 0:
            raise ValueError("sequence weights must be nonnegative")
        if w != 0:
            out[xn] = w
    if not out:
        raise ValueError("distribution has no support")
    total = sum(Fraction(w) for w in out.values())
    if abs(total - 1) > Fraction(1, 10**12):
        raise ValueError(f"sequence weights sum to {float(total)}, expected 1")
    return out


def fraction_split(law: dict, alphabet_size: int) -> dict:
    """Type counts -> (Fraction mass, Fraction conditional law) for the types that carry mass."""
    members: dict[tuple, dict] = {}
    for xn, w in law.items():
        counts = tuple(xn.count(s) for s in range(alphabet_size))
        members.setdefault(counts, {})[xn] = Fraction(w)
    out = {}
    for counts, cls in members.items():
        mass = sum(cls.values())
        out[counts] = (mass, {xn: w / mass for xn, w in cls.items()})
    return out


def fraction_quantize(weights, K: int) -> list[Fraction]:
    """Multiples of 1/K: floors of the scaled weights, leftover quanta to the largest fractional parts."""
    exact = [Fraction(w) for w in weights]
    total = sum(exact)
    scaled = [w / total * K for w in exact]
    floors = [floor(s) for s in scaled]
    order = sorted(range(len(exact)), key=lambda i: (-(scaled[i] - floors[i]), i))
    for i in order[: K - sum(floors)]:
        floors[i] += 1
    return [Fraction(f, K) for f in floors]


def fraction_remix(law: dict, alphabet_size: int, n: int, K: int, L: int, drawn) -> dict:
    """The resolvability stages on Fractions, given sample_family's draw counts.

    Returns the type masses, quantized weights and quantization_tv, the
    sparse law (quantized type weight times draw count / L per member of
    each active type, members sorted) and the signed float weights P - P_bar.
    """
    from opcover.channels import type_enumerate

    classes = fraction_split(law, alphabet_size)
    types = type_enumerate(n, alphabet_size)
    masses = [classes[t.counts][0] if t.counts in classes else Fraction(0) for t in types]
    quantized = fraction_quantize(masses, K)
    total = sum(masses)
    live = [i for i, q in enumerate(quantized) if q != 0]
    sparse: dict[tuple, Fraction] = {}
    for i, (counts, _) in zip(live, drawn):
        seqs = sorted(classes[types[i].counts][1])
        for e_idx in np.flatnonzero(counts):
            xn = seqs[e_idx]
            sparse[xn] = sparse.get(xn, Fraction(0)) + quantized[i] * Fraction(int(counts[e_idx]), L)
    return {
        "masses": masses,
        "quantized": quantized,
        "quantization_tv": sum(abs(m / total - r) for m, r in zip(masses, quantized)),
        "sparse": sparse,
        "signed": {xn: float(Fraction(w) - sparse.get(xn, 0)) for xn, w in law.items()},
    }


def von_neumann_entropy(rho) -> float:
    """Entropy of a density matrix in bits."""
    from opcover import linalg

    w = np.linalg.eigvalsh(linalg.require_density(rho))
    w = np.clip(w, 0.0, 1.0)
    pos = w > 1e-15
    return float(-(w[pos] * np.log2(w[pos])).sum())


def holevo_information(p, channel) -> float:
    """H(output mixture) - sum_x p(x) H(W_x), in bits.

    Concavity of entropy makes this nonnegative; float dust below zero
    is clamped.
    """
    from opcover.channels import output_state
    from opcover.linalg import check_distribution

    p = check_distribution(p, channel.alphabet_size)
    mixed = von_neumann_entropy(output_state(p, channel))
    conditional = sum(
        float(px) * von_neumann_entropy(w)
        for px, w in zip(p, channel.states)
        if px > 0.0
    )
    return max(0.0, mixed - conditional)


def type_class_size(t) -> int:
    """Number of sequences with the given counts (exact integer)."""
    size = 1
    remaining = t.n
    for c in t.counts:
        size *= comb(remaining, c)
        remaining -= c
    return size


def bernstein_bound(rv, a, t, n: int) -> float:
    """Exponential-moment bound d * || E exp(T(X - A)T) ||^n on the upper tail.

    T must be Hermitian and invertible (T*T > 0); the polar reduction to
    this case is the caller's business.
    """
    from opcover import linalg

    a = linalg.require_hermitian(a, name="A")
    t = linalg.require_hermitian(t, name="T")
    if min(abs(w) for w in np.linalg.eigvalsh(t)) <= linalg.PSD_TOL:
        raise ValueError("T must be invertible")
    acc = np.zeros((rv.dim, rv.dim), dtype=complex)
    for p, x in zip(rv.probs, rv.values):
        acc += p * linalg.herm_exp(t @ (x - a) @ t)
    return rv.dim * linalg.spectral_norm(acc) ** n


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random pure state |v><v| on C^dim, v from complex Gaussians; the stream is frozen in tests."""
    from opcover import linalg

    linalg.require_matrices(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# Typical projectors built one state at a time: the batched builders of
# opcover.channels must reproduce these bit for bit.  Each state takes its
# own density checks, eigensolve, factor check, eigenspace classes, class
# counts and running products; only the window, the exponent report, the
# size checks and TypicalProjector are shared with the library.


def _per_state_classes(values):
    from opcover.channels import DEGENERACY_ATOL

    values = np.asarray(values, dtype=float)
    ids = np.empty(values.size, dtype=int)
    masses: list[float] = []
    prev = None
    for idx in np.argsort(values, kind="stable"):
        if prev is None or values[idx] - prev > DEGENERACY_ATOL:
            masses.append(0.0)
        ids[idx] = len(masses) - 1
        masses[-1] += float(values[idx])
        prev = values[idx]
    return ids, np.clip(np.asarray(masses), 0.0, 1.0)


def _per_state_system(state):
    from opcover import linalg

    m = linalg.as_matrix(state)
    diag = np.diagonal(m)
    off = m - np.diag(diag)
    if np.abs(off).max(initial=0.0) <= 1e-12 and np.abs(diag.imag).max(initial=0.0) <= 1e-12:
        values, basis = diag.real.copy(), np.eye(len(diag))
    else:
        values, basis = linalg.eigh(m)
    d = m.shape[0]
    if np.abs(basis.conj().T @ basis - np.eye(d)).max() > 1e-10:
        raise ValueError("factor basis is not unitary within 1e-10")
    if linalg.frobenius(m @ basis - basis * values) > 1e-9:
        raise ValueError("factor basis does not diagonalize its letter state within 1e-9")
    ids, masses = _per_state_classes(values)
    return values, basis, ids, masses


def _per_state_class_counts(hits, m):
    def outer(head, tail):
        return (head[:, :, None] + tail[:, None, :]).reshape(len(hits), -1)

    counts, block = np.zeros((len(hits), 1), dtype=hits.dtype), hits
    while True:
        if m & 1:
            counts = outer(counts, block)
        m >>= 1
        if not m:
            return counts
        block = outer(block, block)


def per_state_product_mask(values, ids, m, targets, widths):
    """Admissible flat indices of one block and their running eigenvalue products."""
    from opcover.channels import COUNT_BLOCK_ENTRIES

    values, ids = np.asarray(values, dtype=float), np.asarray(ids)
    size = len(values) ** m
    count_dtype = np.min_scalar_type(m)
    allowed = np.abs(np.arange(m + 1) - targets[:, None]) <= widths[:, None]
    ok = np.ones(size, dtype=bool)
    group = max(1, COUNT_BLOCK_ENTRIES // size)
    for lo in range(0, len(allowed), group):
        classes = np.arange(lo, min(lo + group, len(allowed)))[:, None]
        ok &= allowed[classes, _per_state_class_counts((ids == classes).astype(count_dtype), m)].all(axis=0)
    clipped = np.where(values > 0.0, values, 0.0)
    probs = np.ones(1)
    for _ in range(m):
        probs = (probs[:, None] * clipped).ravel()
    mask = np.flatnonzero(ok)
    return mask, probs[mask]


def per_state_typical_projector(rho, n: int, alpha: float):
    """One state's frequency-typical projector, built on its own."""
    from opcover import linalg
    from opcover.channels import TypicalProjector, _check_build_size, _exponent_report, _window

    rho = linalg.require_density(rho)
    d = rho.shape[0]
    _check_build_size(d, n, alpha)
    values, basis, ids, masses = _per_state_system(rho)
    targets, widths = _window(masses, n, alpha)
    mask, probs = per_state_product_mask(values, ids, n, targets, widths)
    bound = 1.0 - d / alpha**2 if alpha > 0.0 else -np.inf
    entropy = linalg.shannon_entropy(np.clip(values, 0.0, 1.0))
    details = _exponent_report(probs, n, entropy, d * alpha * sqrt(n))
    details["class_masses"] = masses.tolist()
    return TypicalProjector(factor_bases=(basis,) * n, factor_values=(values,) * n, mask=mask,
                            probs=probs, alpha=float(alpha), sequence=None, mass_bound=bound,
                            details=details)


def per_state_conditional_typical_projector(channel, xn, alpha: float):
    """One sequence's conditional typical projector, its letters diagonalized one by one."""
    from opcover import linalg
    from opcover.channels import (
        TypicalProjector,
        _check_build_size,
        _check_sequence,
        _exponent_report,
        _window,
    )

    xn = _check_sequence(xn, channel.alphabet_size)
    n = len(xn)
    d = channel.dim
    _check_build_size(d, n, alpha, "sequence")
    systems = {x: _per_state_system(channel.states[x]) for x in sorted(set(xn))}
    strides = d ** np.arange(n - 1, -1, -1, dtype=np.intp)
    mask = np.zeros(1, dtype=np.intp)
    block_details = []
    entropy = 0.0
    for x in sorted(set(xn)):
        values, _, ids, masses = systems[x]
        positions = [i for i, s in enumerate(xn) if s == x]
        targets, widths = _window(masses, len(positions), alpha)
        entropy += len(positions) / n * linalg.shannon_entropy(np.clip(values, 0.0, 1.0))
        bmask, bprobs = per_state_product_mask(values, ids, len(positions), targets, widths)
        bdigits = np.array(np.unravel_index(bmask, (d,) * len(positions)))
        mask = (mask[:, None] + strides[positions] @ bdigits).ravel()
        block_details.append({"symbol": x, "length": len(positions),
                              "class_masses": masses.tolist(), "block_mass": fsum(bprobs)})
    mask = np.sort(mask)
    probs = np.ones(mask.size)
    for x, k in zip(xn, np.unravel_index(mask, (d,) * n)):
        values = np.asarray(systems[x][0], dtype=float)
        probs = probs * np.where(values > 0.0, values, 0.0)[k]
    a = channel.alphabet_size
    bound = 1.0 - a * d / alpha**2 if alpha > 0.0 else -np.inf
    details = _exponent_report(probs, n, entropy, d * a * alpha * sqrt(n))
    details["blocks"] = block_details
    return TypicalProjector(factor_bases=tuple(systems[x][1] for x in xn),
                            factor_values=tuple(systems[x][0] for x in xn), mask=mask,
                            probs=probs, alpha=float(alpha), sequence=xn, mass_bound=bound,
                            details=details)
