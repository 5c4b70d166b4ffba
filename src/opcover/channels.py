"""Classical-quantum channels, Holevo capacity, and frequency typicality.

A channel here is a finite family of density operators indexed by input
symbols; classical channels embed as commuting diagonal families.  The
module computes output statistics, Holevo information and its maximum
(the capacity, by active-set Newton with a duality-gap certificate),
and the type-class machinery (typical sequences, typical projectors,
conditional typical projectors) whose quantitative guarantees drive the
covering constructions downstream.

Typical projectors are built frequency-style: diagonalize each letter
state, merge degenerate eigenvalues into eigenspace classes, and keep
the product eigenvectors whose class occupation counts stay within
alpha standard deviations of their means.  All trace guarantees are
Chebyshev bounds, so they hold on every instance, not just on average.
A projector is diagonal in the product of its letter eigenbases, so it
is stored factored (letter bases plus the admissible product-index
mask) and no builder forms a d^n x d^n matrix.

Both builders work on batches: typical_projectors takes a stack of
states and conditional_typical_projectors a list of sequences, and the
single-state and single-sequence builders are their one-element
wrappers.  A batch checks its states as density operators in one
linalg.require_density, diagonalizes its non-diagonal states in one
eigh, shares the class counts of blocks with one eigenspace-class
pattern and length, and stacks the running eigenvalue products, so the
per-state numpy calls of a type-by-type loop are paid once per batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import MAX_SEQUENCE_SPACE, MAX_TENSOR_DIM, MAX_TYPES, DomainError, check_distribution
from .rng import make_rng, random_density

# Eigenvalues closer than this merge into one eigenspace class before
# any typicality test; keeps the construction basis-independent.
DEGENERACY_ATOL = 1e-9
# A letter with more weight than this in ker(sigma) has D(W_x || sigma) = +inf.
KERNEL_WEIGHT_TOL = 1e-12
# Projected-Hessian eigenvalues within this fraction of the largest
# magnitude count as flat: I(P) is linear along them.
FLAT_CURVATURE = 1e-10
# Armijo sufficient-increase fraction and the backtracking budget.
ARMIJO = 1e-4
MAX_HALVINGS = 40
# Changes of I(P) this small are float noise at the scale of bits.
INFO_NOISE = 1e-14
# Class counts of product indices are held for at most this many
# (class, index) pairs at once: one byte each while m < 256.
COUNT_BLOCK_ENTRIES = 1 << 22
# typical_set turns at most this many mask entries into tuples at once.
MEMBER_CHUNK = 1 << 16


class CQChannel:
    """Map from a finite input alphabet into density operators.

    States are stored as a read-only copy of shape (alphabet_size, dim,
    dim), every one validated as a density operator on construction, so
    the letter eigensystems in `systems` are made once and stay valid.
    """

    def __init__(self, states):
        arr = np.asarray(states, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("states must be a stack of square matrices")
        if arr.shape[0] < 1:
            raise ValueError("channel needs at least one input symbol")
        arr = linalg.require_density(arr, name="state {}")
        arr.flags.writeable = False
        self.states = arr

    @functools.cached_property
    def systems(self) -> tuple:
        """(eigenvalues, eigenbasis, class ids, class masses) of every letter, by symbol.

        Made and checked by _factor_systems, in one batch, on first use;
        every projector built on this channel shares them.
        """
        return tuple(_factor_systems(self.states))

    @property
    def alphabet_size(self) -> int:
        return int(self.states.shape[0])

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    def state(self, x: int) -> np.ndarray:
        return self.states[int(x)]

    def is_commuting(self) -> bool:
        for a, b in itertools.combinations(self.states, 2):
            if linalg.commutator_norm(a, b) > 1e-10 * self.dim:
                return False
        return True


def random_channel(seed: int, inputs: int, dim: int) -> CQChannel:
    """Seeded channel of `inputs` random density operators on C^dim."""
    linalg.require_positive(inputs=inputs)
    linalg.require_matrices(dim, inputs, "inputs")
    rng = make_rng(seed)
    return CQChannel([random_density(rng, dim) for _ in range(inputs)])


def embed_classical(w) -> CQChannel:
    """Lift a row-stochastic matrix to a channel of diagonal states.

    Row x becomes diag(w[x]) in the standard basis, so all outputs
    commute and the channel carries exactly the classical statistics.
    """
    w = linalg.float_rows(w, "stochastic matrix")
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValueError("stochastic matrix must be 2-d and nonempty")
    # written so that a NaN weight fails both tests
    if not w.min() >= -1e-12:
        raise ValueError("stochastic matrix weights must be nonnegative numbers")
    sums = w.sum(axis=1)
    if not np.abs(sums - 1.0).max() <= 1e-12:
        raise ValueError(f"rows must sum to 1 within 1e-12, got {sums.tolist()}")
    states = np.stack([np.diag(np.maximum(row, 0.0)).astype(np.complex128) for row in w])
    return CQChannel(states)


def output_state(p, channel: CQChannel) -> np.ndarray:
    """Average output sum_x p(x) W_x."""
    p = check_distribution(p, channel.alphabet_size)
    return linalg.hermitize(np.tensordot(p, channel.states, axes=1))


def tensor_output(xn, channel: CQChannel) -> np.ndarray:
    """Product output W_{x_1} (x) ... (x) W_{x_n} for a symbol sequence: one atom of weight 1."""
    return product_mixture({tuple(xn): 1.0}, channel)


def product_mixture(weights, channel: CQChannel) -> np.ndarray:
    """sum_xn w_xn W_{x_1} (x) ... (x) W_{x_n} over a mapping of sequences to real weights.

    Weights may be signed.  Sequences that end alike share a branch of
    a prefix tree of the reversed sequences, and the sum below a node
    factors as sum_x (sum below child x) (x) W_x: one kron per tree
    node, so k sequences cost O(d^(2n)) where summing k tensor outputs
    costs O(k d^(2n)).  Factors multiply in sequence order, first factor
    most significant, through linalg.kron (numpy.kron's products without
    its per-call set-up, which dominates at the tree's small nodes).
    Symbols and the output dimension are checked before any allocation.
    """
    atoms = sorted(
        (_check_sequence(xn, channel.alphabet_size)[::-1], float(w))
        for xn, w in dict(weights).items()
    )
    if not atoms:
        raise ValueError("need at least one sequence")
    n = len(atoms[0][0])
    if any(len(nx) != n for nx, _ in atoms):
        raise ValueError("sequences must share one length")
    linalg.require_size("sequence", channel.dim, MAX_TENSOR_DIM, exponent=n, message=(
        f"tensor output dimension {channel.dim}^{n} exceeds {MAX_TENSOR_DIM}"))

    def below(lo: int, hi: int, depth: int) -> np.ndarray:
        # sum over atoms[lo:hi], whose last `depth` symbols agree, of w
        # times the product of their first n - depth letters
        out = None
        while lo < hi:
            x, mid = atoms[lo][0][depth], lo
            while mid < hi and atoms[mid][0][depth] == x:
                mid += 1
            if depth == n - 1:
                term = atoms[lo][1] * channel.states[x]  # distinct keys: mid == lo + 1
            else:
                term = linalg.kron(below(lo, mid, depth + 1), channel.states[x])
            if out is None:
                out = term
            else:
                out += term
            lo = mid
        return out

    return below(0, len(atoms), 0)


def _check_sequence(xn, alphabet_size: int) -> tuple[int, ...]:
    xn = tuple(int(x) for x in xn)
    if not xn:
        raise ValueError("symbol sequence must be nonempty")
    if any(x < 0 or x >= alphabet_size for x in xn):
        raise DomainError(f"symbols must lie in 0..{alphabet_size - 1}", "sequence")
    return xn


@dataclass(frozen=True)
class CapacitySolution:
    """Certified maximum of the Holevo information over input laws.

    `bits` is the information of the returned distribution; `gap` is
    the duality slack max_x D(W_x || PW) - I(P), a rigorous upper bound
    on how far `bits` can sit below the true capacity.
    """

    bits: float
    input_distribution: np.ndarray
    gap: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "bits": self.bits,
            "input_distribution": self.input_distribution.tolist(),
            "gap": self.gap,
            "iterations": self.iterations,
        }


def _divergences_from_output(
    channel: CQChannel, letter_entropies, sigma
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D(W_x || sigma) in bits for all x at once, from one eigh of sigma.

    A letter with more than KERNEL_WEIGHT_TOL of its weight in ker sigma
    gets D = +inf, so no duality gap can be certified at such a point.
    Also returns sigma's support spectrum s and the letters rotated into
    sigma's eigenbasis and cut to that support, shape (a, k, k), which
    is all the Hessian needs.
    """
    s, v = linalg.eigh(sigma)
    pos = s > 1e-15
    rotated = v.conj().T @ channel.states @ v
    # weights[x, j] = <v_j| W_x |v_j>
    weights = np.clip(np.diagonal(rotated, axis1=1, axis2=2).real, 0.0, None)
    div = -np.asarray(letter_entropies) - weights[:, pos] @ np.log2(s[pos])
    div[weights[:, ~pos].sum(axis=1) > KERNEL_WEIGHT_TOL] = np.inf
    return div, s[pos], rotated[:, pos][:, :, pos]


def _information_hessian(s, rotated) -> np.ndarray:
    """Hessian of I(P) in bits: H_xy = -(1/ln 2) sum_ij conj(W~_x)_ij L_ij (W~_y)_ij.

    W~ are the letters in sigma's eigenbasis and L is the Daleckii-Krein
    matrix of ln at sigma's eigenvalues s: (ln s_i - ln s_j)/(s_i - s_j),
    1/s_i on the diagonal.  Near the diagonal L is read off
    log1p(u)/u / s_j with u = s_i/s_j - 1, which has no cancellation.
    """
    u = s[:, None] / s[None, :] - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (np.log(s)[:, None] - np.log(s)[None, :]) / (s[:, None] - s[None, :])
        near = np.where(u == 0.0, 1.0, np.log1p(u) / u) / s[None, :]
    divided = np.where(np.abs(u) < 0.5, near, far)
    flat = rotated.reshape(len(rotated), -1)
    h = -((flat.conj() * divided.ravel()) @ flat.T).real / linalg.LN2
    return (h + h.T) / 2


def _face_direction(p, grad, hess) -> np.ndarray:
    """Ascent direction on one face, in the plane sum(delta) = 0.

    Eigendirections of the reduced Hessian with curvature get the
    Newton coefficient.  Along the flat ones I(P) is linear, so the
    gradient part there is scaled until, on top of the Newton part, it
    drives one letter exactly onto the face boundary.
    """
    plane = np.linalg.svd(np.ones((1, p.size)))[2][1:].T  # orthonormal, sums 0
    lam, vec = np.linalg.eigh(plane.T @ hess @ plane)
    coef = vec.T @ (plane.T @ grad)
    curved = lam < -FLAT_CURVATURE * np.abs(lam).max(initial=0.0)
    newton = plane @ (vec[:, curved] @ (-coef[curved] / lam[curved]))
    flat = plane @ (vec[:, ~curved] @ coef[~curved])
    shrink = flat < 0.0
    if not shrink.any():
        return newton
    ratios = np.maximum(p + newton, 0.0)[shrink] / -flat[shrink]
    block = np.flatnonzero(shrink)[ratios.argmin()]
    delta = newton + ratios.min() * flat
    if ratios.min() > 0.0:
        delta[block] = -p[block]  # so the ratio test lands it on exactly 0
    elif p[block] == 0.0:
        delta[block] = -np.inf  # a letter at 0 blocks the flat part: it leaves the face
    return delta


def _newton_direction(p, div, info, s, rotated) -> np.ndarray:
    """Newton direction on the face {p_x > 0} and {D_x > I}.

    A letter at 0 whose component comes out negative leaves the face
    and the direction is recomputed, so the face shrinks to a fixpoint.
    """
    face = (p > 0.0) | (div > info)
    hess = _information_hessian(s, rotated)
    while True:
        idx = np.flatnonzero(face)
        delta = np.zeros_like(p)
        if idx.size > 1:
            delta[idx] = _face_direction(p[idx], div[idx], hess[np.ix_(idx, idx)])
        leaving = face & (p == 0.0) & (delta < 0.0)
        if not leaving.any():
            return delta
        face &= ~leaving


def capacity(channel: CQChannel, tol: float = 1e-9, max_iter: int = 200_000) -> CapacitySolution:
    """Maximize Holevo information by active-set Newton with a duality-gap certificate.

    From the uniform law, each step takes one eigh of sigma = sum_x
    p(x) W_x; the divergences D(W_x || sigma) are the gradient and
    Daleckii-Krein divided differences give the Hessian.  The Newton
    direction on the active face is cut by a ratio test, which sets the
    letters that reach 0 to exactly 0, and then by Armijo backtracking
    on I(P).  A step that lowers the gap while I(P) moves by float
    noise only is accepted too.  The sole stopping rule is the duality
    gap max_x D(W_x || sigma) - I(P) <= tol, which certifies `bits` to
    that absolute accuracy.  `iterations` counts the iterates examined,
    the uniform start included: one more than the Newton steps taken,
    of which there are at most max_iter - 1.  A step that no
    backtracking can make acceptable raises RuntimeError at once.
    """
    linalg.require_positive(tol=tol, max_iter=max_iter)
    a = channel.alphabet_size
    spectra = np.clip(np.linalg.eigvalsh(channel.states), 0.0, 1.0)
    letter_entropies = [linalg.shannon_entropy(w) for w in spectra]

    def evaluate(p):
        sigma = linalg.hermitize(np.tensordot(p, channel.states, axes=1))
        div, s, rotated = _divergences_from_output(channel, letter_entropies, sigma)
        info = float(p[p > 0.0] @ div[p > 0.0])
        return div, info, float(div.max()) - info, s, rotated

    p = np.full(a, 1.0 / a)
    div, info, gap, s, rotated = evaluate(p)
    for it in range(1, max_iter + 1):
        if gap <= tol:
            return CapacitySolution(
                bits=max(0.0, info),
                input_distribution=p,
                gap=gap,
                iterations=it,
            )
        if it == max_iter:
            break
        delta = _newton_direction(p, div, info, s, rotated)
        slope = float(div @ delta)
        falling = delta < 0.0
        ratios = p[falling] / -delta[falling]
        t = min(1.0, ratios.min(initial=math.inf))
        hits = falling.copy()
        hits[falling] = ratios <= t
        for _ in range(MAX_HALVINGS):
            trial = np.maximum(p + t * delta, 0.0)
            trial[hits] = 0.0
            trial = trial / trial.sum()
            state = evaluate(trial)
            rise = state[1] - info
            if math.isfinite(state[2]) and (
                (rise > INFO_NOISE and rise >= ARMIJO * t * slope)
                or (state[2] < gap and rise >= -INFO_NOISE)
            ):
                p, (div, info, gap, s, rotated) = trial, state
                break
            t, hits = t / 2.0, np.zeros_like(hits)
        else:
            raise RuntimeError(f"capacity Newton ascent stalled at gap {gap} after {it - 1} steps")
    raise RuntimeError(f"capacity Newton ascent still has gap {gap} after {max_iter - 1} steps")


# ---------------------------------------------------------------------------
# Types (empirical distributions) and typical sequences


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Occupation counts of a length-n sequence over a finite alphabet."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.n < 1:
            raise DomainError("n must be a positive integer", "n")
        if not self.counts:
            raise ValueError("counts must be nonempty")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.n:
            raise ValueError(f"counts sum to {sum(self.counts)}, expected {self.n}")

    @classmethod
    def from_sequence(cls, xn, alphabet_size: int) -> "EmpiricalDistribution":
        xn = _check_sequence(xn, alphabet_size)
        counts = [0] * alphabet_size
        for x in xn:
            counts[x] += 1
        return cls(n=len(xn), counts=tuple(counts))

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def probabilities(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n


def type_enumerate(n: int, a: int) -> list[EmpiricalDistribution]:
    """All empirical distributions of length-n sequences over a symbols."""
    if n < 1 or a < 1:
        raise DomainError("need n >= 1 and a >= 1", "n" if n < 1 else "a")
    total = math.comb(n + a - 1, a - 1)
    linalg.require_size("n", total, MAX_TYPES, f"{total} types exceed the enumeration cap {MAX_TYPES}")
    # one chunk: the list of types outweighs the array of their counts
    out = [
        EmpiricalDistribution(n=n, counts=tuple(counts))
        for block in linalg.compositions(n, a, total)
        for counts in block.tolist()
    ]
    # total <= len(out) <= min(total, (n+1)^a): each of a counts takes one of n + 1 values
    linalg.check_bound("types enumerated fall short of C(n+a-1, a-1)", total, len(out))
    linalg.check_bound("types enumerated exceed C(n+a-1, a-1) or (n+1)^a",
                       len(out), min(total, (n + 1) ** a))
    return out


def typical_set(p, n: int, alpha: float) -> set:
    """Sequences whose per-symbol counts sit within alpha deviations.

    Membership: |N(x|seq) - n p(x)| <= alpha * sqrt(n p(x) (1 - p(x)))
    for every symbol.  The total probability of the set is summed
    exactly over the enumeration and checked against the Chebyshev
    guarantee 1 - a/alpha^2.  Tuples are made MEMBER_CHUNK mask entries
    at a time, so only one chunk of digit arrays is held beside the set.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    a = p.size
    p = check_distribution(p, a)
    _check_length_and_alpha(n, alpha)
    linalg.require_size("n", a, MAX_SEQUENCE_SPACE, exponent=n, message=(
        f"sequence space {a}^{n} exceeds {MAX_SEQUENCE_SPACE}"))
    # one factor per position, one eigenspace class per symbol
    targets, widths = _window(p, n, alpha)
    mask, member_probs = _product_masks([(p, np.arange(a), n, targets, widths)])[0]
    members = set()
    for lo in range(0, mask.size, MEMBER_CHUNK):
        digits = np.unravel_index(mask[lo:lo + MEMBER_CHUNK], (a,) * n)
        members.update(zip(*(d.tolist() for d in digits)))
    mass = math.fsum(member_probs)
    bound = 1.0 - a / alpha**2 if alpha > 0.0 else -math.inf
    # float slack only: the Chebyshev argument already covers sequences
    # dropped by rounding at the window boundary
    linalg.check_bound("typical set mass falls below its guarantee", bound, mass, 1e-12)
    return members


# ---------------------------------------------------------------------------
# Typical projectors


def _merge_close(spectra) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenspace classes of every spectrum (row) of a stack: near-equal values merge.

    Returns, per row, (class id per input position, mass per class) with
    classes numbered in ascending value order and masses clipped into
    [0, 1].  Adjacent gaps <= DEGENERACY_ATOL merge transitively, and a
    class mass adds its values up in ascending order.
    """
    spectra = np.asarray(spectra, dtype=float)
    ids, masses, sizes = [], [], []
    for values, order in zip(spectra.tolist(), np.argsort(spectra, axis=1, kind="stable").tolist()):
        row, mass, prev = [0] * len(values), [], None
        for idx in order:
            if prev is None or values[idx] - prev > DEGENERACY_ATOL:
                mass.append(0.0)
            row[idx] = len(mass) - 1
            mass[-1] += values[idx]
            prev = values[idx]
        ids.append(row)
        sizes.append(len(mass))
        masses.append(mass + [0.0] * (len(values) - len(mass)))
    masses = np.clip(np.array(masses), 0.0, 1.0)
    return [(i, w[:size]) for i, w, size in zip(np.array(ids, dtype=int), masses, sizes)]


def _factor_systems(states) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(eigenvalues, eigenbasis, class ids, class masses) of every Hermitian state of a stack.

    The one maker of factor bases: the whole stack passes _check_factors
    here, once, and no projector checks its factors again.  A diagonal
    state keeps its diagonal and the standard basis np.eye(d) without an
    eigensolve; products with an identity are exact, so downstream
    builders stay exactly diagonal.  All other states share one eigh.
    """
    m = np.asarray(states, dtype=np.complex128)
    k, d = len(m), m.shape[-1]
    diag = np.diagonal(m, axis1=1, axis2=2)
    off = np.abs(m)
    off.reshape(k, d * d)[:, ::d + 1] = 0.0
    flat = ((off.max(axis=(1, 2), initial=0.0) <= 1e-12)
            & (np.abs(diag.imag).max(axis=1, initial=0.0) <= 1e-12))
    if flat.any():
        values = diag.real.copy()
        checked = np.zeros((k, d, d), dtype=np.complex128)
        checked[:, range(d), range(d)] = 1.0
        if not flat.all():
            values[~flat], checked[~flat] = linalg.eigh(m[~flat])
    else:
        values, checked = linalg.eigh(m)
    _check_factors(checked, values, m)
    return [
        (v, np.eye(d) if is_flat else u, ids, masses)
        for v, u, is_flat, (ids, masses) in zip(values, checked, flat.tolist(), _merge_close(values))
    ]


def _check_factors(bases, values, letters) -> None:
    """Factor bases must be unitary and diagonalize their letter states: a stack, in one batch."""
    w = np.asarray(letters)
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError("letter states must be a stack of square matrices")
    k, d = w.shape[:2]
    if np.shape(values) != (k, d):
        raise ValueError("factor spectrum length must match the letter dimension")
    u = np.asarray(bases)
    if u.shape != (k, d, d):
        raise ValueError("factor basis must be square of the letter dimension")
    if np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(d)).max(initial=0.0) > 1e-10:
        raise ValueError("factor basis is not unitary within 1e-10")
    if np.linalg.norm(w @ u - u * values[:, None, :], axis=(1, 2)).max(initial=0.0) > 1e-9:
        raise ValueError("factor basis does not diagonalize its letter state within 1e-9")


@dataclass(frozen=True)
class TypicalProjector:
    """Frequency-typical subspace projector for a product state, stored factored.

    The projector is diagonal in a product eigenbasis.  Factor i has the
    orthonormal eigenbasis `factor_bases[i]` (columns) and the
    eigenvalues `factor_values[i]` of its letter state.  `mask` lists
    the flat indices (first factor most significant) of the product
    eigenvectors spanning the range, strictly increasing, and `probs`
    their reference eigenvalues.  `sequence` is the input sequence of a
    conditional projector and None for an unconditional one.
    `trace_mass`, the sum of `probs`, is the exact overlap of the
    reference product state with the range, guaranteed to reach
    `mass_bound` by Chebyshev counting.

    Validation is factored and runs at every size: factor bases were
    checked unitary and diagonalizing where they were made
    (_factor_systems), and an in-range increasing mask makes the product
    projector Hermitian, idempotent and commuting with the reference
    state.  No dense dim x dim projector is ever built.
    """

    factor_bases: tuple
    factor_values: tuple
    mask: np.ndarray
    probs: np.ndarray
    alpha: float
    sequence: tuple[int, ...] | None
    mass_bound: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        mask = self.mask
        if mask.ndim != 1 or not np.issubdtype(mask.dtype, np.integer):
            raise ValueError("mask must be a 1-d integer array")
        if self.probs.shape != mask.shape:
            raise ValueError("probs must hold one eigenvalue per mask index")
        if mask.size and (mask[0] < 0 or mask[-1] >= self.dim or (np.diff(mask) <= 0).any()):
            raise ValueError("mask must be strictly increasing inside [0, dim)")
        linalg.check_bound("typical mass falls below its guarantee",
                           self.mass_bound, self.trace_mass, 1e-12)

    @property
    def n(self) -> int:
        return len(self.factor_values)

    @property
    def kind(self) -> str:
        return "unconditional" if self.sequence is None else "conditional"

    @functools.cached_property
    def trace_mass(self) -> float:
        return math.fsum(self.probs)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.factor_values)

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def rank(self) -> int:
        return int(self.mask.size)

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """Per-factor eigenvector index of every range vector, shape (n, rank)."""
        return np.array(np.unravel_index(self.mask, self.factor_dims)).reshape(self.n, self.rank)


def _product_masks(blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Admissible eigenvectors of m copies of a letter and their reference eigenvalues, per block.

    A block is (values, ids, m, targets, widths).  A product eigenvector
    is admissible when, for every eigenspace class c, the count of its m
    digits in class c (by `ids`) lies within widths[c] of targets[c].
    Flat indices run over mixed-radix digit arrays, first factor most
    significant.  Returns, per block, (ascending flat indices,
    eigenvalue products), each product a running product of the clipped
    eigenvalues in factor order.

    No m x a^m digit array is formed.  Blocks of one class-id pattern
    and length are done together: they share their class counts, built
    in the smallest unsigned dtype that holds m (_class_counts) for up
    to COUNT_BLOCK_ENTRIES // a^m classes at once, look their windows up
    in one stacked read, and grow their running products together, one
    digit position at a time, as the outer product of the products so
    far with the next factor's values, over every index; the admissible
    ones are picked at the end.  A stacked step holds at most
    COUNT_BLOCK_ENTRIES entries, or one block's.
    """
    out = [None] * len(blocks)
    patterns: dict = {}
    for i, (_, ids, m, _, _) in enumerate(blocks):
        patterns.setdefault((tuple(np.asarray(ids).tolist()), m), []).append(i)
    for (pattern, m), members in patterns.items():
        ids, size, count = np.array(pattern), len(pattern) ** m, len(members)
        targets = np.array([blocks[i][3] for i in members])
        widths = np.array([blocks[i][4] for i in members])
        # allowed[b, c * (m + 1) + j]: j digits in class c lie within block b's window
        allowed = np.abs(np.arange(m + 1) - targets[:, :, None]) <= widths[:, :, None]
        num_classes, allowed = allowed.shape[1], allowed.reshape(count, -1)
        ok = np.ones((count, size), dtype=bool)
        group = max(1, COUNT_BLOCK_ENTRIES // size)
        for lo in range(0, num_classes, group):
            classes = np.arange(lo, min(lo + group, num_classes))[:, None]
            hits = (ids == classes).astype(np.min_scalar_type(m))
            index = classes * (m + 1) + _class_counts(hits, m)
            step = max(1, COUNT_BLOCK_ENTRIES // index.size)
            for b in range(0, count, step):
                ok[b:b + step] &= allowed[b:b + step].take(index, axis=1).all(axis=1)
        values = np.array([blocks[i][0] for i in members], dtype=float)
        factors = np.where(values > 0.0, values, 0.0)[:, None, :]
        step = max(1, COUNT_BLOCK_ENTRIES // size)
        for lo in range(0, count, step):
            rows = min(step, count - lo)
            probs = np.ones((rows, 1))
            for _ in range(m):
                probs = (probs[:, :, None] * factors[lo:lo + rows]).reshape(rows, -1)
            for i, row, keep in zip(members[lo:lo + rows], probs, ok[lo:lo + rows]):
                mask = np.flatnonzero(keep)
                out[i] = mask, row[mask]
    return out


def _class_counts(hits: np.ndarray, m: int) -> np.ndarray:
    """counts[g, f], how many of the m digits of flat index f fall in class g.

    hits[g, x] is 1 when digit x lies in class g.  The counts of a block
    of digit positions followed by another are their outer sum, so the m
    positions are covered by blocks of 1, 2, 4, ... positions, each the
    outer sum of the one before with itself.
    """
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


def _window(masses, n_block: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    targets = n_block * masses
    widths = alpha * np.sqrt(n_block * np.clip(masses * (1.0 - masses), 0.0, None))
    return targets, widths


def _exponent_report(probs, n, entropy_bits, denom) -> dict:
    """Measured exponent constants for the rank and sandwich bounds.

    The guaranteed versions carry a universal constant inherited from
    cited work, so these are diagnostics, never assertions.
    """
    rank = len(probs)
    lo = float(probs.min()) if rank else None
    hi = float(probs.max()) if rank else None
    out = {
        "rank": int(rank),
        "entropy_bits": float(entropy_bits),
        "rank_exponent_constant": None,
        "lower_sandwich_constant": None,
        "upper_sandwich_constant": None,
        "min_restricted_eigenvalue": lo,
        "max_restricted_eigenvalue": hi,
    }
    if rank > 0 and denom > 0.0:
        out["rank_exponent_constant"] = (math.log2(rank) - n * entropy_bits) / denom
        if lo > 0.0:
            out["lower_sandwich_constant"] = (-math.log2(lo) - n * entropy_bits) / denom
        if hi > 0.0:
            out["upper_sandwich_constant"] = (math.log2(hi) + n * entropy_bits) / denom
    return out


def typical_projector(rho, n: int, alpha: float) -> TypicalProjector:
    """Projector onto typical product eigenvectors of rho^(x n): typical_projectors of one state."""
    return typical_projectors(linalg.as_matrix(rho)[None], n, alpha)[0]


def typical_projectors(states, n: int, alpha: float) -> list[TypicalProjector]:
    """Projectors onto typical product eigenvectors of rho^(x n), one per state of a stack.

    Eigenvalues of rho merge into eigenspace classes; a product
    eigenvector survives when its class occupation counts are all
    within alpha deviations.  The retained reference mass is at least
    1 - d/alpha^2.  The stack is checked as density operators in one
    batch (linalg.require_density); it shares one eigensolve, the class
    counts and the stacked running products (_product_masks).
    """
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 3:
        raise ValueError(f"expected a stack of square matrices, got shape {states.shape}")
    systems = _factor_systems(linalg.require_density(states, "rho"))
    d = states.shape[-1]
    _check_build_size(d, n, alpha)
    built = _product_masks([(values, ids, n, *_window(masses, n, alpha))
                            for values, _, ids, masses in systems])
    bound = 1.0 - d / alpha**2 if alpha > 0.0 else -math.inf
    out = []
    for (values, basis, _, masses), (mask, probs) in zip(systems, built):
        entropy = linalg.shannon_entropy(np.clip(values, 0.0, 1.0))
        details = _exponent_report(probs, n, entropy, d * alpha * math.sqrt(n))
        details["class_masses"] = masses.tolist()
        out.append(TypicalProjector(
            factor_bases=(basis,) * n,
            factor_values=(values,) * n,
            mask=mask,
            probs=probs,
            alpha=float(alpha),
            sequence=None,
            mass_bound=bound,
            details=details,
        ))
    return out


def conditional_typical_projector(channel: CQChannel, xn, alpha: float) -> TypicalProjector:
    """Projector onto jointly typical eigenvectors of a product output.

    conditional_typical_projectors of one sequence.
    """
    return conditional_typical_projectors(channel, [xn], alpha)[0]


def conditional_typical_projectors(
    channel: CQChannel, sequences, alpha: float
) -> list[TypicalProjector]:
    """Projectors onto jointly typical eigenvectors of product outputs, one per sequence.

    Tensor factors group into blocks by input symbol; each block gets
    the unconditional construction for its letter state at deviation
    alpha, and the blocks tensor together: the range is every choice
    of one admissible vector per block.  The retained mass is at least
    1 - a*d/alpha^2 by a union bound over blocks.  The letter
    eigensystems are the channel's own `systems`.  The batch builds one
    block per distinct (symbol, block length) (_product_masks), and the
    sequences of one length take their running products together
    (_sequence_products).
    """
    d = channel.dim
    seqs = []
    for xn in sequences:
        xn = _check_sequence(xn, channel.alphabet_size)
        _check_build_size(d, len(xn), alpha, "sequence")
        seqs.append(xn)
    systems = channel.systems
    # positions of each symbol, by ascending symbol, per sequence
    layouts = [{x: [i for i, s in enumerate(xn) if s == x] for x in sorted(set(xn))} for xn in seqs]
    keys = sorted({(x, len(positions)) for layout in layouts for x, positions in layout.items()})
    blocks = dict(zip(keys, _product_masks([
        (systems[x][0], systems[x][2], m, *_window(systems[x][3], m, alpha)) for x, m in keys
    ])))
    entropies = {x: linalg.shannon_entropy(np.clip(systems[x][0], 0.0, 1.0)) for x, _ in keys}
    masks, reports = [], []
    for xn, layout in zip(seqs, layouts):
        n = len(xn)
        strides = d ** np.arange(n - 1, -1, -1, dtype=np.intp)
        mask = np.zeros(1, dtype=np.intp)
        block_details = []
        entropy = 0.0
        for x, positions in layout.items():
            bmask, bprobs = blocks[x, len(positions)]
            entropy += len(positions) / n * entropies[x]
            # the admissible set factorizes across blocks: each block's digits
            # land on its positions, the outer sum over blocks lists every
            # admissible index once, and the block masses multiply to trace_mass
            bdigits = np.array(np.unravel_index(bmask, (d,) * len(positions)))
            mask = (mask[:, None] + strides[positions] @ bdigits).ravel()
            block_details.append(
                {
                    "symbol": x,
                    "length": len(positions),
                    "class_masses": systems[x][3].tolist(),
                    "block_mass": math.fsum(bprobs),
                }
            )
        masks.append(np.sort(mask))
        reports.append((entropy, block_details))

    a = channel.alphabet_size
    bound = 1.0 - a * d / alpha**2 if alpha > 0.0 else -math.inf
    out = []
    for xn, mask, probs, (entropy, block_details) in zip(
            seqs, masks, _sequence_products(systems, seqs, masks), reports):
        n = len(xn)
        details = _exponent_report(probs, n, entropy, d * a * alpha * math.sqrt(n))
        details["blocks"] = block_details
        out.append(TypicalProjector(
            factor_bases=tuple(systems[x][1] for x in xn),
            factor_values=tuple(systems[x][0] for x in xn),
            mask=mask,
            probs=probs,
            alpha=float(alpha),
            sequence=xn,
            mass_bound=bound,
            details=details,
        ))
    return out


def _sequence_products(systems, seqs, masks) -> list[np.ndarray]:
    """Per sequence, the running product in factor order of the clipped eigenvalues its mask picks.

    Sequences of one length multiply together, one position at a time,
    with at most COUNT_BLOCK_ENTRIES mask digits (or one mask's) at once.
    """
    d = len(systems[0][0])
    table = np.array([np.where(v > 0.0, v, 0.0) for v, *_ in systems])
    out = [None] * len(seqs)
    lengths: dict = {}
    for j, xn in enumerate(seqs):
        lengths.setdefault(len(xn), []).append(j)
    for n, members in lengths.items():
        for chunk in _runs(members, [masks[j].size * n for j in members], COUNT_BLOCK_ENTRIES):
            sizes = [masks[j].size for j in chunk]
            owner = np.repeat(np.arange(len(chunk)), sizes)
            # lookup[s, i]: the clipped eigenvalues of letter i of chunk sequence s
            lookup = table[[seqs[j] for j in chunk]]
            probs = np.ones(sum(sizes))
            digits = np.unravel_index(np.concatenate([masks[j] for j in chunk]), (d,) * n)
            for i, digit in enumerate(digits):
                probs = probs * lookup[:, i][owner, digit]
            start = 0
            for j, size in zip(chunk, sizes):
                out[j], start = probs[start:start + size], start + size
    return out


def _runs(items, sizes, budget: int):
    """Consecutive runs of items whose sizes add up to at most budget, or single items."""
    run, total = [], 0
    for item, size in zip(items, sizes):
        if run and total + size > budget:
            yield run
            run, total = [], 0
        run.append(item)
        total += size
    if run:
        yield run


def range_permutation(proj: TypicalProjector, xns, ys) -> np.ndarray:
    """Where proj's range vectors land in its own range when each xn is rearranged to ys.

    xns is an (m, n) array of sequences, each a rearrangement of ys.
    The factor at position i of xns[k] moves to position source[k, i]
    of ys, the one carrying the same symbol (stable among equal
    symbols), so range vector j of proj (digits j, one per factor)
    becomes j' with j'[source[k]] = j; perm[k, j] is the index of j' in
    proj's range.  All m sequences are relabeled together: one
    ravel_multi_index and one searchsorted over the (m, rank) moved
    vectors.  An unconditional projector's range is invariant under
    moving factors, so there every row of perm permutes proj's range.
    A moved vector outside that range raises; it is never clamped onto
    a neighbour.
    """
    xns = np.asarray(xns, dtype=np.intp)
    ys = np.asarray(ys, dtype=np.intp)
    if (xns.ndim != 2 or ys.shape != (proj.n,) or xns.shape[1] != proj.n
            or (np.sort(xns, axis=1) != np.sort(ys)).any()):
        raise ValueError("every xn must be a rearrangement of ys, and proj of that length")
    m = len(xns)
    source = np.empty_like(xns)
    np.put_along_axis(source, np.argsort(xns, axis=1, kind="stable"),
                      np.argsort(ys, kind="stable"), axis=1)
    moved = np.empty((proj.n, m, proj.rank), dtype=proj.digits.dtype)
    moved[source, np.arange(m)[:, None]] = proj.digits
    keys = np.ravel_multi_index(moved, proj.factor_dims)
    perm = np.searchsorted(proj.mask, keys)
    inside = perm < proj.rank
    inside[inside] = proj.mask[perm[inside]] == keys[inside]
    if not inside.all():
        raise ValueError("a rearranged range vector leaves the target range")
    return perm


def _check_length_and_alpha(n: int, alpha: float) -> None:
    if n < 1:
        raise DomainError("n must be a positive integer", "n")
    if not alpha >= 0.0:
        raise DomainError("alpha must be nonnegative", "alpha")


def _check_build_size(d: int, n: int, alpha: float, param: str = "n") -> None:
    _check_length_and_alpha(n, alpha)
    linalg.require_size(param, d, MAX_TENSOR_DIM, exponent=n, message=(
        f"product dimension {d}^{n} exceeds {MAX_TENSOR_DIM}"))


def cross_typical_mass(channel: CQChannel, xn, alpha: float) -> tuple[float, TypicalProjector]:
    """Overlap of a product output with its type-average's projector.

    Builds the unconditional projector of the single-letter mixture
    under the sequence's empirical distribution, at widened deviation
    alpha*sqrt(a), and traces the product output W^n_{xn} against it:
    the sum over range vectors of prod_i <v_{k_i}| W_{x_i} |v_{k_i}>,
    read off a per-letter table of diagonal overlaps.  The same
    Chebyshev count keeps this above 1 - a*d/alpha^2.
    """
    xn = _check_sequence(xn, channel.alphabet_size)
    linalg.require_positive(alpha=alpha)
    a = channel.alphabet_size
    t = EmpiricalDistribution.from_sequence(xn, a)
    mix = output_state(t.probabilities(), channel)
    proj = typical_projector(mix, len(xn), alpha * math.sqrt(a))
    v = proj.factor_bases[0]
    # overlaps[x, j] = <v_j| W_x |v_j>
    overlaps = np.einsum("ji,xjk,ki->xi", v.conj(), channel.states, v).real
    terms = np.ones(proj.rank)
    for x, k in zip(xn, proj.digits):
        terms = terms * overlaps[x, k]
    mass = math.fsum(terms)
    bound = 1.0 - a * channel.dim / alpha**2
    linalg.check_bound("cross typical mass falls below its guarantee", bound, mass, 1e-9)
    return mass, proj
