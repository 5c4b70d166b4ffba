"""Identification codes for cq channels and sparse input resolvability.

An identification (QID) code is a family of input distributions on
length-n sequences paired with test effects on the n-fold output
space; the figures of merit are the worst-case errors of first and
second kind.  The resolvability pipeline replaces each input
distribution by one of small support whose channel output is close in
trace norm: condition on empirical types, approximate every
conditional output by a sampled multiset average of sandwiched edge
operators, and quantize the type weights to multiples of 1/K.  The
sparse distributions that come out carry weights that are exact
multiples of 1/(K*L), so counting them bounds the number of messages;
those bounds are double exponential and live here strictly in
log2 log2 space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .channels import (
    CQChannel,
    TypicalProjector,
    conditional_typical_projectors,
    output_state,
    product_mixture,
    range_permutation,
    tensor_output,
    type_enumerate,
    typical_projectors,
)
from .covering import QuantumHypergraph, SamplingExhausted, sample_family
from .linalg import MAX_SEQUENCE_SPACE, MAX_TENSOR_DIM, DomainError
from .rng import make_rng, random_distribution, random_effect, spawn_seeds

DEFAULT_PROBE_LAMBDAS = (0.9, 0.75, 0.6, 0.45, 0.3)
# A letter whose eigenvalues but the largest lie within this of zero is
# pure for the measured distance (resolvability_regularize)
PURITY_TOL = 1e-12


def check_sequence_distribution(
    entries, n: int | None = None, alphabet_size: int | None = None, param: str = "atoms"
) -> dict:
    """Validate a sparse distribution on length-n symbol sequences.

    Keys become tuples of ints, zero-weight atoms are dropped, a NaN or
    infinite weight is refused, and the total weight must be 1 within
    1e-12.  Fraction weights pass through untouched so exact
    distributions stay exact; float weights are kept as floats.  A
    symbol outside the alphabet is a DomainError naming `param`.
    """
    out = {}
    for key, w in dict(entries).items():
        xn = tuple(int(s) for s in key)
        if n is None:
            n = len(xn)
        if len(xn) != n:
            raise ValueError(f"sequence {xn} has length {len(xn)}, expected {n}")
        if not xn and n == 0:
            raise ValueError("sequences must be nonempty")
        for s in xn:
            if s < 0:
                raise DomainError("sequence symbols must be nonnegative", param)
            if alphabet_size is not None and s >= alphabet_size:
                raise DomainError(f"symbol {s} outside the alphabet of size {alphabet_size}", param)
        if not isinstance(w, Fraction):
            w = float(w)
            if not -1e-12 <= w < math.inf:  # NaN fails too
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


def uniform_distribution(alphabet_size: int, n: int) -> dict:
    """Exact uniform distribution on the full sequence space."""
    linalg.require_positive(n=n)
    space = linalg.require_size("n", alphabet_size, MAX_SEQUENCE_SPACE, exponent=n, message=(
        f"sequence space {alphabet_size}^{n} exceeds {MAX_SEQUENCE_SPACE}"))
    w = Fraction(1, space)
    return {xn: w for xn in itertools.product(range(alphabet_size), repeat=n)}


def random_sparse_distribution(seed: int, alphabet_size: int, n: int, support: int) -> dict:
    """Seeded random distribution on `support` distinct sequences."""
    linalg.require_positive(n=n)
    space = linalg.require_size("n", alphabet_size, MAX_SEQUENCE_SPACE, exponent=n, message=(
        f"sequence space {alphabet_size}^{n} exceeds {MAX_SEQUENCE_SPACE}"))
    if not 1 <= support <= space:
        raise DomainError("support must lie between 1 and the sequence space size", "support")
    rng = make_rng(seed)
    picks = sorted(int(i) for i in rng.choice(space, size=support, replace=False))
    weights = random_distribution(rng, support)
    out = {}
    for idx, w in zip(picks, weights):
        digits = []
        for _ in range(n):
            digits.append(idx % alphabet_size)
            idx //= alphabet_size
        out[tuple(reversed(digits))] = float(w)
    return out


class QIDCode:
    """Identification code: input distributions paired with test effects.

    Entry i is (P_i, D_i) where P_i is a sparse distribution on
    length-n sequences and D_i is an effect (0 <= D_i <= identity) on
    the n-fold output space.  No structure ties the D_i to a common
    measurement; arbitrary effect families are in scope.  Given an
    alphabet_size, every symbol is checked against it (a DomainError
    naming "entries").
    """

    def __init__(self, n: int, entries, alphabet_size: int | None = None):
        self.n = int(n)
        linalg.require_positive(n=self.n)
        checked = []
        dim = None
        for dist, effect in entries:
            dist = check_sequence_distribution(dist, self.n, alphabet_size, "entries")
            m = linalg.require_hermitian(effect, name="test effect")
            if dim is None:
                dim = m.shape[0]
            if m.shape != (dim, dim):
                raise ValueError("test effects must share one dimension")
            if not linalg.relative_margin(m, 0.0, 1.0)[2]:
                raise ValueError("test effect falls outside the operator interval [0, identity]")
            checked.append((dist, m))
        if not checked:
            raise ValueError("at least one code entry required")
        self.entries = tuple(checked)
        self.test_dim = dim

    @property
    def num_messages(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {
                    "P": [[list(xn), float(w)] for xn, w in sorted(dist.items())],
                    "D": linalg.matrix_to_json(effect),
                }
                for dist, effect in self.entries
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, alphabet_size: int | None = None) -> "QIDCode":
        entries = [
            ({tuple(xn): w for xn, w in e["P"]}, linalg.matrix_from_json(e["D"]))
            for e in obj["entries"]
        ]
        return cls(obj["n"], entries, alphabet_size)


def random_qid_code(seed: int, channel: CQChannel, n: int, messages: int, support: int) -> QIDCode:
    """Seeded code: per message a random sparse input law and a random test effect."""
    linalg.require_positive(messages=messages)
    # before random_effect is asked for a d^n x d^n effect
    dn = linalg.require_size("n", channel.dim, MAX_TENSOR_DIM, exponent=n)
    linalg.require_matrices(dn, messages, "messages")
    seeds = spawn_seeds(seed, 2 * messages)
    entries = []
    for i in range(messages):
        dist = random_sparse_distribution(seeds[2 * i], channel.alphabet_size, n, support)
        effect = random_effect(make_rng(seeds[2 * i + 1]), dn)
        entries.append((dist, effect))
    return QIDCode(n, entries, channel.alphabet_size)


def evaluate_qid_code(code: QIDCode, channel: CQChannel) -> tuple[float, float, np.ndarray]:
    """Worst-case errors of an identification code over a channel.

    Returns (lambda1, lambda2, acceptance) where acceptance[i, j] is
    the probability that the test for message i accepts when message j
    was sent, lambda1 = max_i (1 - acceptance[i, i]) and
    lambda2 = max over i != j of acceptance[i, j] (0 when there is a
    single message).  Each message's output is one product_mixture of
    its input law, so no per-atom d^n x d^n output is formed.
    """
    dn = linalg.require_size("code", channel.dim, MAX_TENSOR_DIM, exponent=code.n, message=(
        f"output dimension {channel.dim}^{code.n} exceeds {MAX_TENSOR_DIM}"))
    if code.test_dim != dn:
        raise ValueError(f"test effects act on dimension {code.test_dim}, channel needs {dn}")
    outputs = [linalg.hermitize(product_mixture(dist, channel)) for dist, _ in code.entries]
    size = code.num_messages
    acceptance = np.zeros((size, size))
    for i in range(size):
        effect = code.entries[i][1]
        for j in range(size):
            acceptance[i, j] = float(np.einsum("ij,ji->", effect, outputs[j]).real)
    lambda1 = max(max(0.0, 1.0 - float(acceptance[i, i])) for i in range(size))
    lambda2 = 0.0
    if size > 1:
        lambda2 = max(
            max(0.0, float(acceptance[i, j])) for i in range(size) for j in range(size) if i != j
        )
    return lambda1, lambda2, acceptance


def type_class_conditionals(P, alphabet_size: int) -> dict:
    """Split a sequence distribution by empirical type, in one pass over P.

    P is validated first (zero-weight atoms dropped).  Maps each type's
    counts to (mass, conditional) for the types that carry mass.
    Weights are exact Fractions, so remixing the conditionals with the
    masses reproduces P exactly, not merely to rounding.
    """
    return _split_by_type(check_sequence_distribution(P, alphabet_size=alphabet_size), alphabet_size)


def _split_by_type(P: dict, alphabet_size: int) -> dict:
    """type_class_conditionals for a P that check_sequence_distribution already passed."""
    members: dict[tuple, dict] = {}
    for xn, w in P.items():
        counts = [0] * alphabet_size
        for s in xn:
            counts[s] += 1
        members.setdefault(tuple(counts), {})[xn] = Fraction(w)
    out = {}
    for counts, cls in members.items():
        mass = sum(cls.values())
        out[counts] = (mass, {xn: w / mass for xn, w in cls.items()})
    return out


def quantize_distribution(weights, K: int) -> list:
    """Round a distribution to exact multiples of 1/K, preserving the total.

    Floor the scaled weights, then hand the leftover quanta to the
    largest fractional parts (ties by lowest index).  Every output
    weight sits within 1/K of its input, so the total variation moved
    is at most len(weights)/K.
    """
    K = int(K)
    if K < 1:
        raise DomainError("K must be a positive integer", "K")
    exact = [Fraction(w) for w in weights]
    if any(w < 0 for w in exact):
        raise ValueError("weights must be nonnegative")
    total = sum(exact)
    if total <= 0:
        raise ValueError("weights must carry positive total mass")
    scaled = [w / total * K for w in exact]
    floors = [math.floor(s) for s in scaled]
    fractional = [s - f for s, f in zip(scaled, floors)]
    leftover = K - sum(floors)
    order = sorted(range(len(exact)), key=lambda i: (-fractional[i], i))
    linalg.check_bound("leftover quanta are negative", 0, leftover)
    linalg.check_bound("leftover quanta exceed the fractional weights", leftover,
                       sum(1 for f in fractional if f > 0))
    for i in order[:leftover]:
        floors[i] += 1
    return [Fraction(f, K) for f in floors]


def quantization_resolution(n: int, a: int, lam) -> int:
    """Quanta count K = ceil(3 (n+1)^a / lambda) for the type weights.

    Computed over exact rationals with lambda read as a decimal, so K
    never depends on float rounding luck; the float path is genuinely
    off by one in reach (3*(20+1)**2 / 0.35 rounds just above the
    exact 3780).
    """
    for name, v in (("n", n), ("a", a)):
        if int(v) != v or v < 1:
            raise DomainError("n and a must be positive integers", name)
    lam_exact = Fraction(str(lam))
    if not 0 < lam_exact < 1:
        raise DomainError("lambda must lie strictly between 0 and 1", "lambda")
    return math.ceil(Fraction(3 * (int(n) + 1) ** int(a)) / lam_exact)


@dataclass(frozen=True)
class RegularizationResult:
    """Sparse replacement for an input distribution, with its audit trail.

    sparse_distribution maps sequences to exact Fraction weights whose
    denominators divide K*L; measured_distance is half the trace-norm
    distance between the channel outputs of the input and the
    replacement; certified means that distance met the lambda/3 budget
    (every per-type covering_certified is true: covering.sample_family,
    given L, returns only samples that passed the sampler's checks, or
    hold them by construction, and raises otherwise).
    """

    sparse_distribution: dict
    measured_distance: float
    K: int
    L: int
    per_type_details: tuple
    certified: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        weights = [Fraction(w) for w in self.sparse_distribution.values()]
        linalg.check_bound("support size exceeds the K*L budget", self.support_size, self.K * self.L)
        linalg.check_bound("a sparse weight is negative", 0, min(weights, default=0))
        linalg.check_bound("sparse weights do not sum to 1", abs(float(sum(weights) - 1)), 1e-10)

    @property
    def support_size(self) -> int:
        return sum(1 for w in self.sparse_distribution.values() if w != 0)

    def to_json(self) -> dict:
        return {
            "measured_distance": self.measured_distance,
            "K": self.K,
            "L": self.L,
            "certified": self.certified,
            "sparse_distribution": [
                [list(xn), str(Fraction(w))] for xn, w in sorted(self.sparse_distribution.items())
            ],
            "per_type_details": [dict(row) for row in self.per_type_details],
            "details": dict(self.details),
        }


def _sandwiched_edge(outer: TypicalProjector, digits: np.ndarray, overlaps) -> np.ndarray:
    """Factor M of the compression of Pi W Pi to the range of `outer`.

    Pi is a conditional typical projector with range digits `digits`
    (shape (n, rank)) and W its product output, diagonal in Pi's product
    eigenbasis, so Pi W Pi = sum_k probs_k |u_k><u_k| over Pi's range
    vectors.  With M[j, k] = <v_j|u_k> = prod_i overlaps[i][j_i, k_i]
    over outer's range vectors v_j, the edge is M diag(probs)
    M^dagger: no dim x dim matrix is formed.
    """
    m = np.ones((outer.rank, digits.shape[1]), dtype=np.complex128)
    for o, j, k in zip(overlaps, outer.digits, digits):
        m = m * o[np.ix_(j, k)]
    return m


def _pure_letters(channel: CQChannel):
    """The a x d rows psi_x = sqrt(lambda_x) u_x of a channel of pure letters, else None.

    A letter is pure when every eigenvalue but its largest, lambda_x with
    eigenvector u_x, lies within PURITY_TOL of zero; then W_x - psi_x
    psi_x^dagger has trace norm at most (d - 1) PURITY_TOL.
    """
    rows = []
    for values, basis, _, _ in channel.systems:
        top = int(np.argmax(values))
        if np.abs(np.delete(values, top)).max(initial=0.0) > PURITY_TOL:
            return None
        rows.append(math.sqrt(values[top]) * basis[:, top])
    return np.array(rows)


def _gram_trace_norm(pure: np.ndarray, weights: dict) -> float:
    """||sum_k c_k |Psi_k><Psi_k| ||_1 over product vectors Psi_k = psi_{x_1^k} (x) ... (x) psi_{x_n^k}.

    With Psi the d^n x k matrix of the Psi_k and C = diag(c), Psi C
    Psi^dagger has the nonzero eigenvalues of C G, G = Psi^dagger Psi,
    and so of G^1/2 C G^1/2.  G_kl = prod_i <psi_{x_i^k}|psi_{x_i^l}> is
    gathered from the a x a table of letter overlaps, and with G = V
    diag(mu) V^dagger the eigenvalues are those of (V mu^1/2)^dagger C
    (V mu^1/2): one k x k eigh and one k x k eigvalsh, no d^n x d^n
    matrix.  Eigenvalues of G within its rounding, k eps max(mu), of
    zero are taken as zero: they belong to product vectors that depend
    linearly on the others (repeated letters), and their square roots
    would be rounding noise.
    """
    seqs = np.array(list(weights), dtype=np.intp)
    c = np.array(list(weights.values()))
    table = pure.conj() @ pure.T
    gram = np.ones((len(c), len(c)), dtype=np.complex128)
    for column in seqs.T:
        gram *= table[np.ix_(column, column)]
    mu, v = np.linalg.eigh(linalg.hermitize(gram))
    mu[mu <= len(c) * np.finfo(float).eps * mu.max()] = 0.0
    half = v * np.sqrt(mu)
    return linalg.trace_norm((half.conj().T * c) @ half)


def resolvability_regularize(
    P,
    channel: CQChannel,
    lam: float,
    seed: int,
    *,
    alpha: float | None = None,
    eps: float | None = None,
    tau: float | None = None,
    draws: int | None = None,
) -> RegularizationResult:
    """Replace an input distribution by one of support at most K*L.

    Stages: condition P on each empirical type; project the per-letter
    outputs onto their typical supports, sandwiching the block output
    between the conditional and the mixture typical projectors;
    approximate each conditional edge mixture by a sampled multiset
    average on the mixture projector's range; quantize the type masses
    to multiples of 1/K; remix.  A type's sequences are rearrangements
    of its sorted sequence, and the mixture projector's range is
    invariant under moving tensor factors, so each member's sandwiched
    edge is the sorted sequence's with rows and columns relabeled: all
    active types' mixture projectors, and their sorted sequences'
    conditional projectors, come from two batched builds
    (channels.typical_projectors, conditional_typical_projectors), and
    per type there is one edge factor, whose spectrum is its weights
    when the mixture projector is the whole space (an isometric factor)
    and one eigensolve otherwise; the members are
    index permutations, found by one range_permutation call per type
    (QuantumHypergraph.from_orbit).  A type with a single member is a
    point mass: its graph is still built (eta, range_dim and the draw
    formula enter L and the row), and covering.sample_family does not
    sample it.

    The measured distance is half the trace norm of sum_xn c_xn W_xn,
    c = P - P_bar on supp P (which holds supp P_bar); no per-atom d^n x
    d^n output is formed.  When every letter is pure (_pure_letters)
    and P has k < d^n atoms, it is a k x k Gram problem
    (_gram_trace_norm), exact for the pure parts psi_x psi_x^dagger of
    the letters: a letter moves from its pure part by at most (d - 1)
    PURITY_TOL in trace norm, so each product output by at most n (d -
    1) PURITY_TOL (1 + 2 (d - 1) PURITY_TOL)^(n - 1), and the measured
    distance, with sum |c| <= 2, by at most that much.  Otherwise it is
    half the trace norm of one signed product_mixture.

    With no overrides the constants are alpha = sqrt(600 a d)/lambda,
    eps = tau = lambda^2/1200 and the per-type draw count L comes from
    the sampler's formula (its maximum over types, so all types share
    one L and the remixed weights are exact multiples of 1/(K*L)), and
    escalates as covering.sample_family does.
    Those constants are asymptotic: at small n certification may
    legitimately fail, and the measured distance is the honest
    deliverable either way.

    Overrides (alpha, eps, tau, draws) switch the result's recorded
    constants_mode from "paper-constants" to "override".  Prescribing
    draws fixes L, skipping the formula and the escalation ladder.
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie strictly between 0 and 1", "lambda")
    if draws is not None:
        linalg.require_positive(draws=draws)
    a = channel.alphabet_size
    d = channel.dim
    P = check_sequence_distribution(P, alphabet_size=a)
    n = len(next(iter(P)))
    linalg.require_size("P", d, MAX_TENSOR_DIM, exponent=n, message=(
        f"output dimension {d}^{n} exceeds {MAX_TENSOR_DIM}"))
    mode = "paper-constants"
    if alpha is not None or eps is not None or tau is not None or draws is not None:
        mode = "override"
    if alpha is None:
        alpha = math.sqrt(600.0 * a * d) / lam
    if eps is None:
        eps = lam * lam / 1200.0
    if tau is None:
        tau = lam * lam / 1200.0
    linalg.require_positive(alpha=alpha, eps=eps, tau=tau)

    lam_exact = Fraction(str(lam))
    K = quantization_resolution(n, a, lam)

    types = type_enumerate(n, a)
    classes = _split_by_type(P, a)
    masses = [classes[t.counts][0] if t.counts in classes else Fraction(0) for t in types]
    total = sum(masses)
    quantized = quantize_distribution(masses, K)
    quantization_tv = sum(abs(m / total - r) for m, r in zip(masses, quantized))
    linalg.check_bound("type quantization moved mass over the lambda/3 budget",
                       quantization_tv, lam_exact / 3)

    # every active type's mixture projector and sorted-sequence reference
    # projector, each kind built in one batch
    live = [i for i in range(len(types)) if quantized[i] != 0]
    mix_projs = typical_projectors(
        [output_state(types[i].probabilities(), channel) for i in live], n, alpha * math.sqrt(a)
    )
    refs = conditional_typical_projectors(
        channel, [[x for x, c in enumerate(types[i].counts) for _ in range(c)] for i in live], alpha
    )
    active, graphs, ps = [], [], []
    for k, i in enumerate(live):
        # a type's projectors, and the digits they cache, go once its graph is built
        mix_proj, ref = mix_projs[k], refs[k]
        mix_projs[k] = refs[k] = None
        cond = classes[types[i].counts][1]
        seqs = sorted(cond)
        if mix_proj.rank == 0:
            raise DomainError("mixture typical projector has empty range; alpha too small", "alpha")
        v_mix = mix_proj.factor_bases[0]
        overlaps = [v_mix.conj().T @ basis for _, basis, _, _ in channel.systems]
        # the type's members are rearrangements of its sorted sequence ref,
        # and the mixture range is invariant under moving factors: each
        # member's edge factor is ref's with its rows relabeled; the type's
        # edge stack, m x s x s with from_orbit's span width s, is refused
        # before it is allocated
        width = len(seqs) * ref.rank
        linalg.require_matrices(width if 0 < width < mix_proj.rank else mix_proj.rank, len(seqs), "P")
        graph = QuantumHypergraph.from_orbit(
            _sandwiched_edge(mix_proj, ref.digits, [overlaps[x] for x in ref.sequence]),
            ref.probs,
            range_permutation(mix_proj, seqs, ref.sequence),
        )
        if graph.eta <= 0.0:
            raise DomainError("typical projection annihilated every edge; alpha too small", "alpha")
        active.append((i, seqs))
        graphs.append(graph)
        ps.append(np.array([float(cond[xn]) for xn in seqs]))
    L, stages_used, formulas, drawn = sample_family(graphs, ps, eps, tau, seed, draws)

    sparse: dict[tuple, Fraction] = {}
    for (i, seqs), (counts, _) in zip(active, drawn):
        for e_idx in np.flatnonzero(counts):
            xn = seqs[e_idx]
            sparse[xn] = sparse.get(xn, Fraction(0)) + quantized[i] * Fraction(int(counts[e_idx]), L)

    # supp(sparse) lies inside supp(P): the output difference is one
    # signed mixture of the outputs on supp(P), its weights P - P_bar
    # exact until rounded
    signed = {xn: float(Fraction(w) - sparse.get(xn, 0)) for xn, w in P.items()}
    pure = _pure_letters(channel)
    if pure is not None and len(P) < d**n:
        measured = 0.5 * _gram_trace_norm(pure, signed)
    else:
        measured = 0.5 * linalg.trace_norm(product_mixture(signed, channel))
    certified = measured <= lam / 3.0

    rows = [
        {
            "type": list(t.counts),
            "probability_mass": float(masses[i]),
            "quantized_weight": str(quantized[i]),
            "active": quantized[i] != 0,
        }
        for i, t in enumerate(types)
    ]
    for (i, seqs), graph, formula, (counts, attempts) in zip(active, graphs, formulas, drawn):
        rows[i].update(
            class_support=len(seqs),
            range_dim=graph.dim,
            eta=graph.eta,
            formula_draws=formula,
            draws=L,
            edges_drawn=int(np.count_nonzero(counts)),
            attempts=attempts,
            covering_certified=True,
            beyond_bound=L > formula,
        )

    return RegularizationResult(
        sparse_distribution=sparse,
        measured_distance=float(measured),
        K=int(K),
        L=int(L),
        per_type_details=tuple(rows),
        certified=bool(certified),
        details={
            "seed": int(seed),
            "lambda": lam,
            "alpha": float(alpha),
            "eps": float(eps),
            "tau": float(tau),
            "constants_mode": mode,
            "n": n,
            "alphabet_size": a,
            "dim": d,
            "base_draws": L // 2 ** (stages_used - 1),
            "stages_used": stages_used,
            "distance_budget": lam / 3.0,
            "quantization_tv": float(quantization_tv),
        },
    )


def approximation_preserves_id(
    code: QIDCode, channel: CQChannel, regularized
) -> tuple[float, float]:
    """Evaluate a code after swapping in its sparse input replacements.

    Both error figures can grow by at most the largest measured output
    distance (an effect never separates two states by more than half
    their trace-norm distance), so the check here is a theorem given
    the measured distances; a violation means an implementation bug.
    """
    regularized = list(regularized)
    if len(regularized) != code.num_messages:
        raise ValueError("one regularization per code entry required")
    lambda1, lambda2, _ = evaluate_qid_code(code, channel)
    swapped = QIDCode(
        code.n,
        [
            ({xn: float(w) for xn, w in reg.sparse_distribution.items()}, effect)
            for reg, (_, effect) in zip(regularized, code.entries)
        ],
    )
    lambda1_bar, lambda2_bar, _ = evaluate_qid_code(swapped, channel)
    slack = max(reg.measured_distance for reg in regularized)
    for name, bar, base in (("lambda1", lambda1_bar, lambda1), ("lambda2", lambda2_bar, lambda2)):
        linalg.check_bound(f"sparse replacement degraded {name} beyond its distance budget",
                           bar, base + slack, 1e-9)
    return lambda1_bar, lambda2_bar


def code_count_bound(K: int, L: int, a: int, n: int):
    """log2 of how many messages K*L-sparse quantized inputs can index.

    Each message is determined by a distribution placing multiples of
    1/(K*L) on length-n sequences, so there are at most (a^n)^(K*L)
    of them: log2 N_max = n * log2(a) * K * L.  Exact integer when a
    is a power of two, otherwise an mpmath value carrying 40 digits
    beyond the integer part; N itself is never materialized.
    """
    for name, v in (("K", K), ("L", L), ("a", a), ("n", n)):
        if int(v) != v or v < 1:
            raise DomainError(f"{name} must be a positive integer", name)
    K, L, a, n = int(K), int(L), int(a), int(n)
    if a & (a - 1) == 0:
        return n * (a.bit_length() - 1) * K * L
    import mpmath  # only here, so other callers never load it

    scale = n * K * L
    with mpmath.workdps(len(str(scale)) + 40):
        return scale * mpmath.log(a) / mpmath.log(2)


def strong_converse_bound(n: int, c_bits, delta) -> Fraction:
    """log2 log2 of the double-exponential message ceiling: n*(C + delta).

    Inputs are read as exact decimals (string round trip to Fraction),
    so n=100, C=0.6, delta=0.01 lands on 61 exactly where float
    arithmetic settles just below it.
    """
    if int(n) != n or n < 1:
        raise DomainError("n must be a positive integer", "n")
    capacity_bits = Fraction(str(c_bits))
    slack = Fraction(str(delta))
    if capacity_bits < 0:
        raise DomainError("capacity must be nonnegative", "c_bits")
    linalg.require_positive(delta=slack)
    return int(n) * (capacity_bits + slack)


def resolution_probe(
    channel: CQChannel,
    n: int,
    eps: float,
    candidate_Ps,
    seed: int,
    lambdas=DEFAULT_PROBE_LAMBDAS,
) -> list:
    """Desk-scale scan for small-support output approximations.

    For each candidate input distribution: measure the best
    single-atom approximation by enumerating the sequence space, then
    run the regularizer across a lambda grid, and report the smallest
    support among certified runs whose full trace-norm output distance
    lands within eps.  This probes achievable resolutions for the
    given candidates only; it is not an infimum over all inputs.
    """
    linalg.require_positive(eps=eps)
    n = int(n)
    a = channel.alphabet_size
    linalg.require_size("n", a * channel.dim**2, MAX_TENSOR_DIM**2, exponent=n, message=(
        f"probe enumerates the sequence space; {a}^{n} outputs of dimension "
        f"{channel.dim}^{n} are too large"))
    lambdas = tuple(float(v) for v in lambdas)
    candidates = [check_sequence_distribution(P, n=n, alphabet_size=a) for P in candidate_Ps]
    seeds = spawn_seeds(seed, max(1, len(candidates) * len(lambdas)))
    atoms = list(itertools.product(range(a), repeat=n))
    outputs = {xn: tensor_output(xn, channel) for xn in atoms}
    report = []
    for ci, P in enumerate(candidates):
        sigma = linalg.hermitize(product_mixture(P, channel))
        atom_distances = [linalg.trace_distance(sigma, outputs[xn]) for xn in atoms]
        best = int(np.argmin(atom_distances))
        atom_distance = float(atom_distances[best])
        rows = []
        feasible = [1] if atom_distance <= eps else []
        for li, lam in enumerate(lambdas):
            sub = seeds[ci * len(lambdas) + li]
            try:
                reg = resolvability_regularize(P, channel, lam, sub)
            except SamplingExhausted as exc:
                rows.append({"lambda": lam, "error": str(exc)})
                continue
            distance = 2.0 * reg.measured_distance
            qualifies = reg.certified and distance <= eps
            rows.append(
                {
                    "lambda": lam,
                    "support": reg.support_size,
                    "distance": distance,
                    "certified": reg.certified,
                    "qualifies": qualifies,
                }
            )
            if qualifies:
                feasible.append(reg.support_size)
        report.append(
            {
                "candidate": ci,
                "atom_sequence": list(atoms[best]),
                "atom_distance": atom_distance,
                "rows": rows,
                "minimal_support": min(feasible) if feasible else None,
            }
        )
    return report
