"""Coverings of quantum hypergraphs.

A quantum hypergraph is a finite family of effects (operators between
zero and the identity) on a d-dimensional space; a covering is a
sub(multi)set of edges whose sum dominates the identity.  A classical
hypergraph, vertices weighted by edge measures, is the case of
diagonal edges, so it needs no code of its own.  This module
implements randomized covering constructions, the sampling
constructions that approximate an edge mixture by a small multiset
average, exact and fractional covering numbers of tensor-power
hypergraphs, and the covering capacity that governs their exponential
growth.

Sampling ops share a retry protocol: up to RETRY_SEEDS fresh sub-seeds
at the formula's draw count, then the count escalates by factors of two
(results found after escalation are flagged beyond_bound and are not
certified).  Callers may instead prescribe the draw count, in which
case no escalation happens and exhaustion raises SamplingExhausted.
A family of graphs sharing one draw count (sample_family) climbs the
same ladder as a whole: each stage samples every graph once at its
prescribed count, and a stage in which any graph exhausts its budget
is abandoned for one at twice the count.  Only SamplingExhausted
escalates; a BoundViolation always propagates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import (LN2, MAX_BRUTEFORCE_EDGES, MAX_BRUTEFORCE_MULTISETS, MAX_TENSOR_DIM, DomainError,
                     check_distribution as _check_distribution)
from .rng import make_rng, random_effect, seed_stream

RETRY_SEEDS = 64
ESCALATION_STAGES = 4  # draw counts 1x, 2x, 4x, 8x
# Brute force forms the degrees of multisets in chunks of at most this
# many complex entries (chunk x D^2) before one batched order check.
BRUTEFORCE_CHUNK_ENTRIES = 1 << 14
# The covering LP's simplex (PackingLP.solve) decides with this one
# tolerance, so the LP meets its cuts only to it and a finer covering tol
# would stall for the full round budget.
LP_FEASIBILITY_TOL = 1e-10
SIMPLEX_PIVOTS = 100_000  # per round; Bland's rule cannot cycle, rounding might
# value <= value_upper is weak duality, exact up to this relative rounding
BRACKET_ROUNDING = 1e-12
# An orbit factor M takes its edge spectrum from its weights when its
# product bound on ||M^dagger M - I||_2 (ProductFactor.isometry_gap), times
# max(1, max w), is within this (QuantumHypergraph.from_orbit)
ISOMETRY_TOL = 1e-12


def _check_graph_header(dim, eta) -> int:
    dim = int(dim)
    linalg.require_positive(dim=dim)
    if eta is not None:
        linalg.require_positive(eta=float(eta))
    return dim


class ProductFactor:
    """A matrix M[j, k] = prod_i overlaps[letters[i]][j_i, columns[i, k]], held as that product.

    The overlaps are one a x s x t stack and row j of M is the digit
    tuple (j_1, ..., j_n) in lexicographic order (first position most
    significant), so M is s^n x r; the r columns are distinct digit
    tuples.  A dense matrix is the one-position case (of_matrix).  G =
    M^dagger M is then a principal submatrix of the tensor product over
    positions of the letter Grams A_x = O_x^dagger O_x, O_x the overlap
    restricted to the columns letter x uses, and A (x) B - I = (A - I)
    (x) B + I (x) (B - I) gives ||G - I||_2 <= prod_x (1 + ||A_x -
    I||_F)^(c_x) - 1, c_x the letter's position count (isometry_gap;
    ||G - I||_F for one position).  The column norms are prod_i
    A_{x_i}[k_i, k_i].  Only dense() forms M.
    """

    def __init__(self, overlaps, letters, columns):
        self.overlaps = np.asarray(overlaps, dtype=np.complex128)
        self.letters = np.asarray(letters, dtype=np.intp)
        self.columns = np.asarray(columns, dtype=np.intp)
        if (self.overlaps.ndim != 3 or self.columns.ndim != 2
                or self.columns.shape[:1] != self.letters.shape):
            raise ValueError("factor dimension mismatch")
        self.shape = (self.overlaps.shape[1] ** len(self.letters), self.columns.shape[1])

    @classmethod
    def of_matrix(cls, m) -> "ProductFactor":
        return cls([m], [0], np.arange(np.shape(m)[-1])[None])

    def dense(self) -> np.ndarray:
        """M, each entry's factors multiplied in position order."""
        m = np.ones((1, self.shape[1]), dtype=np.complex128)
        for x, cols in zip(self.letters, self.columns):
            o = self.overlaps[x]
            m = (m[:, None, :] * o[:, cols]).reshape(len(m) * len(o), self.shape[1])
        return m

    def isometry_gap(self) -> float:
        """prod_x (1 + ||A_x - I||_F)^(c_x) - 1 >= ||M^dagger M - I||_2, all letter Grams in one product."""
        if len(self.letters) == 1:  # M itself: its Frobenius norm
            o = self.overlaps[self.letters[0]][:, np.sort(self.columns[0])]
            return linalg.frobenius(o.conj().T @ o - np.eye(o.shape[1]))
        used = np.zeros(self.overlaps.shape[::2])
        used[self.letters[:, None], self.columns] = 1.0
        g = self.overlaps.conj().transpose(0, 2, 1) @ self.overlaps - np.eye(self.overlaps.shape[2])
        # ||A_x - I||_F over the used columns, and the c_x steps folded into one power
        e = np.sqrt(np.einsum("xij,xi,xj->x", (g * g.conj()).real, used, used))
        return math.expm1(float(np.bincount(self.letters, minlength=len(used)) @ np.log1p(e)))

    def column_norms(self) -> np.ndarray:
        """||M[:, k]||^2 = prod_i sum_j |O_i[j, k_i]|^2 per column."""
        squares = [(np.abs(o) ** 2).sum(axis=0) for o in self.overlaps]
        norms = np.ones(self.shape[1])
        for x, cols in zip(self.letters, self.columns):
            norms = norms * squares[x][cols]
        return norms


def _orbit_spectrum(factor: ProductFactor, weights: np.ndarray) -> np.ndarray:
    """Ascending nonzero spectrum of M diag(w) M^dagger: w where M is an isometry by its bound (from_orbit)."""
    dim, r = factor.shape
    if 0 < r <= dim and factor.isometry_gap() * max(1.0, float(weights.max())) <= ISOMETRY_TOL:
        return np.sort(weights)
    m = factor.dense()
    if 0 < r < dim:
        f = m * np.sqrt(weights)
        return np.linalg.eigvalsh(linalg.hermitize(f.conj().T @ f))
    return np.linalg.eigvalsh(linalg.hermitize((m * weights) @ m.conj().T))


class QuantumHypergraph:
    """Finite family of effect operators on a d-dimensional space.

    Every edge E satisfies 0 <= E <= identity and E <= eta * identity,
    up to the package PSD tolerance.  With eta=None the cap is the
    tightest one, min(1, largest edge spectral norm), read off the
    same spectrum that validates the edges.

    Edges are held in the span of all edges: E_j = Q C_j Q^dagger with
    `basis` Q (dim x s) orthonormal columns and `compressed[j]` = C_j
    (s x s).  E_j has the spectrum of C_j plus dim - s zeros, so
    spectra, traces and mixtures are computed on the C_j.  Graphs built
    from dense edges keep Q = identity (`basis` None, C_j = E_j).
    `from_orbit` builds edges that relabel one edge's indices and
    validates them all on one spectrum, the factor's weights when the
    factor is an isometry by its product bound, else one eigensolve; it
    keeps only the factor (a ProductFactor), weights and permutations,
    and forms `basis` and `compressed` (one QR when the edges are narrow,
    else one gather) from the dense factor on their first read.
    `num_edges`, `span_dim` and `edge_traces` never need them.  The
    dense `edges` are lifted on first access.
    """

    def __init__(self, dim: int, edges, eta: float | None):
        self.dim = _check_graph_header(dim, eta)
        mats = [linalg.as_matrix(e) for e in edges]
        if any(m.shape != (self.dim, self.dim) for m in mats):
            raise ValueError("edge dimension mismatch")
        if not mats:
            raise ValueError("at least one edge required")
        stack = linalg.require_hermitian(np.stack(mats), name="edge")
        self._set_edges(np.linalg.eigvalsh(stack), eta)
        self._orbit = None
        self._span = (None, stack)
        self.num_edges, self.span_dim = len(stack), self.dim

    @classmethod
    def from_orbit(cls, factor, weights, perms) -> "QuantumHypergraph":
        """Edges E_j = E[perm_j][:, perm_j], relabelings of one E = M diag(w) M^dagger.

        factor M is a dim x r ProductFactor or a dense matrix (its
        one-position case), the weights w >= 0 and every perms[j] a
        permutation of range(dim), so edge j has the factor M[perm_j], the
        rows of M gathered, and the spectrum of E.  That one spectrum
        validates every edge and gives eta (_set_edges).  With F = M
        diag(sqrt(w)), E = F F^dagger has the nonzero eigenvalues of
        F^dagger F = D^1/2 G D^1/2, G = M^dagger M, D = diag(w), and by
        Weyl's inequality each lies within max(w) ||G - I||_2 of sorted w.
        So when 0 < r <= dim and the factor's bound on ||G - I||_2
        (isometry_gap) times max(1, max w) is within ISOMETRY_TOL, the
        spectrum is sorted w, exact to ISOMETRY_TOL, far inside the PSD
        tolerance of both decisions, and neither M nor G is formed; this
        is the case whenever the columns of M are orthonormal (a full
        mixture typical projector).  Otherwise one eigensolve of the dense
        M gives it: of F^dagger F when r < dim (the zeros it lacks decide
        nothing), else of C = M diag(w) M^dagger.  Every edge has the
        trace sum_k w_k ||M[:, k]||^2.  The span (_span) is formed from
        the dense M on first read: when 0 < m r < dim for m = len(perms),
        one QR of the row gathers [M[perm_1] ... M[perm_m]] = Q R spans
        the edges, C_j = R_j diag(w) R_j^dagger with R_j the j-th r
        columns of R; otherwise Q = identity and C_j = C[perm_j][:,
        perm_j], an exact relabeling of one float matrix.
        """
        if not isinstance(factor, ProductFactor):
            factor = ProductFactor.of_matrix(factor)
        weights = np.asarray(weights, dtype=float)
        perms = np.asarray(perms, dtype=np.intp)
        dim, r = factor.shape
        if weights.shape != (r,):
            raise ValueError("factor dimension mismatch")
        if perms.ndim != 2 or not len(perms):
            raise ValueError("at least one edge required")
        if perms.shape[1] != dim or (np.sort(perms, axis=1) != np.arange(dim)).any():
            raise ValueError("every edge needs a permutation of the factor's rows")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        g = cls.__new__(cls)
        g.dim = _check_graph_header(dim, None)
        g._set_edges(_orbit_spectrum(factor, weights)[None], None)
        g._orbit = (factor, weights, perms)
        m = len(perms)
        g.num_edges, g.span_dim = m, m * r if 0 < m * r < dim else dim
        return g

    def _set_edges(self, w: np.ndarray, eta: float | None) -> None:
        # One spectrum decides both orders: E >= 0 on the spectrum w, and
        # cap*I - E >= 0 on its spectrum cap - w, each with its own tolerance.
        # w is a stack holding every edge's nonzero eigenvalues, computed or,
        # for an isometric orbit factor, its weights (from_orbit); the zeros
        # it may lack (off the span, or off a low-rank factor) change neither
        # decision, nor the tolerances (both read max(1, |.|)), nor the tight eta.
        if (w[:, 0] < -linalg.spectral_tolerance(w)).any():
            raise ValueError("edge is not positive semidefinite")
        self.eta = min(1.0, float(np.abs(w).max())) if eta is None else float(eta)
        gap = min(1.0, self.eta) - w
        if (gap[:, -1] < -linalg.spectral_tolerance(gap)).any():
            raise ValueError("edge exceeds the eta cap")

    @functools.cached_property
    def _span(self) -> tuple:
        """(basis, compressed) of a from_orbit graph (see from_orbit), formed on first read."""
        factor, weights, perms = self._orbit
        factor = factor.dense()
        if self.span_dim == self.dim:
            c = linalg.hermitize((factor * weights) @ factor.conj().T)
            return None, c[perms[:, :, None], perms[:, None, :]]
        basis, coeffs = np.linalg.qr(np.hstack([factor[p] for p in perms]))
        compressed = np.empty((self.num_edges, self.span_dim, self.span_dim), dtype=np.complex128)
        for c, f in zip(compressed, np.split(coeffs, self.num_edges, axis=1)):
            c[...] = linalg.hermitize((f * weights) @ f.conj().T)
        return basis, compressed

    @property
    def basis(self):
        """Q, the dim x s span basis, or None for the identity."""
        return self._span[0]

    @property
    def compressed(self) -> np.ndarray:
        """The num_edges x s x s stack of the C_j."""
        return self._span[1]

    def lift(self, c: np.ndarray) -> np.ndarray:
        """Q c Q^dagger: an s x s span operator as a dim x dim one."""
        if self.basis is None:
            return c
        return linalg.hermitize(self.basis @ c @ self.basis.conj().T)

    @functools.cached_property
    def edges(self) -> tuple:
        """The dense dim x dim edges."""
        return tuple(self.lift(c) for c in self.compressed)

    def span_combination(self, weights) -> np.ndarray:
        """sum_j weights_j C_j in span coordinates, added edge by edge in index order.

        Zero weights are skipped; adding them would change no float.
        """
        out = np.zeros((self.span_dim, self.span_dim), dtype=complex)
        for c, x in zip(self.compressed, weights, strict=True):
            if x:
                out = out + float(x) * c
        return out

    def edge_average(self, p) -> np.ndarray:
        """Edge mixture sum_E P(E) E, accumulated edge by edge in index order (span_combination)."""
        return _degree_from_counts(self, _check_distribution(p, self.num_edges))

    def edge_traces(self) -> np.ndarray:
        """tr C_j per edge, read off the factor for a from_orbit graph (every edge alike)."""
        if self._orbit is None:
            return np.array([float(np.trace(c).real) for c in self.compressed])
        factor, weights, perms = self._orbit
        return np.full(len(perms), float(weights @ factor.column_norms()))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "eta": self.eta,
            "edges": [linalg.matrix_to_json(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuantumHypergraph":
        return cls(obj["dim"], [linalg.matrix_from_json(e) for e in obj["edges"]], obj["eta"])


def random_hypergraph(seed: int, dim: int, num_edges: int, eta: float = 1.0) -> QuantumHypergraph:
    """Seeded random effect family with eigenvalues below eta."""
    linalg.require_positive(num_edges=num_edges)
    linalg.require_matrices(dim, num_edges, "num_edges")
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]", "eta")
    rng = make_rng(seed)
    edges = [eta * random_effect(rng, dim) for _ in range(num_edges)]
    return QuantumHypergraph(dim, edges, eta)


@dataclass(frozen=True)
class CoveringResult:
    """One sampled covering or mixture approximation.

    edge_multiplicities maps edge index to how often it was drawn, so a
    prescribed draw count far too large to list one index per draw
    costs one entry per edge.
    certified means every numerically checkable guarantee of the
    generating construction passed and the draw count was not escalated
    past the formula; beyond_bound records a draw count above the
    formula's value, whether by escalation or by the caller's choice.
    For randomized coverings `sampled_average` holds the multiset
    degree, for the sampler the multiset average, an operator either
    way.
    """

    kind: str
    edge_multiplicities: dict
    num_draws: int
    sampled_average: np.ndarray
    certified: bool
    seed: int
    beyond_bound: bool = False
    attempts: int = 1
    pi0: np.ndarray | None = None
    pi1: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.edge_multiplicities.values()) != self.num_draws:
            raise ValueError("edge multiplicities must sum to num_draws")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "edge_multiplicities": {str(i): int(c) for i, c in sorted(self.edge_multiplicities.items())},
            "num_draws": int(self.num_draws),
            "sampled_average": linalg.matrix_to_json(self.sampled_average),
            "certified": bool(self.certified),
            "seed": int(self.seed),
            "beyond_bound": bool(self.beyond_bound),
            "attempts": int(self.attempts),
            "pi0": None if self.pi0 is None else linalg.matrix_to_json(self.pi0),
            "pi1": None if self.pi1 is None else linalg.matrix_to_json(self.pi1),
            "details": dict(self.details),
        }


def degree(g: QuantumHypergraph, subset=None) -> np.ndarray:
    """Sum of the selected edges (all edges when subset is None).

    Repeated indices count with multiplicity: the subset becomes edge
    counts, summed like any other counts (_degree_from_counts).
    """
    m = g.num_edges
    if subset is None:
        return _degree_from_counts(g, np.ones(m))
    return _degree_from_counts(g, np.bincount(np.asarray(subset, dtype=np.intp), minlength=m))


def _degree_from_counts(g: QuantumHypergraph, counts) -> np.ndarray:
    """sum_j counts_j E_j through span_combination; samplers pass counts, never draw lists."""
    return g.lift(linalg.hermitize(g.span_combination(counts)))


def is_covering(g: QuantumHypergraph, subset=None) -> bool:
    """Whether the selected edges sum above the identity (PSD order)."""
    return linalg.psd_leq(np.eye(g.dim), degree(g, subset))


def _attempt_schedule(seed: int, stages: int):
    # seeds are spawned one per attempt: nearly every call stops at the first
    subs = seed_stream(seed)
    for i in range(RETRY_SEEDS * stages):
        yield i + 1, 2 ** (i // RETRY_SEEDS), next(subs)


def covering_size_bounds(g: QuantumHypergraph, p=None) -> dict:
    """Both randomized covering size guarantees, for the record.

    The mixture form uses the least eigenvalue of sum P(E) E and drives
    covering_randomized; the uniform-degree form uses the least
    eigenvalue of the full degree.  They agree for uniform P and differ
    otherwise, so both are always reported.
    """
    logd = math.log2(g.dim)
    delta = linalg.min_eigenvalue(degree(g))
    out = {
        "uniform_degree": (
            1.0 + 8.0 * g.num_edges * LN2 * logd / delta if delta > 0 else math.inf
        )
    }
    if p is not None:
        mu = linalg.min_eigenvalue(g.edge_average(p))
        out["min_eig"] = 1.0 + 8.0 * LN2 * logd / mu if mu > 0 else math.inf
    return out


def covering_randomized(g: QuantumHypergraph, p, seed: int) -> CoveringResult:
    """Draw i.i.d. edges until the multiset covers.

    The draw count floor(1 + 8 ln2 log2(d) / mu), with mu the least
    eigenvalue of the edge mixture, succeeds with positive probability
    for d >= 2.  A point-mass distribution needs no sampling: exactly
    ceil(1/mu) copies of its edge are returned.
    """
    p = _check_distribution(p, g.num_edges)
    mu = linalg.min_eigenvalue(g.edge_average(p))
    if mu <= 0.0:
        raise ValueError("edge mixture is singular, no covering of this form exists")
    bounds = covering_size_bounds(g, p)
    formula = bounds["min_eig"]
    details = {"mu": mu, "k_bound_min_eig": formula,
               "k_bound_uniform_degree": bounds["uniform_degree"]}

    support = np.flatnonzero(p > 0.0)
    if support.size == 1:
        k = max(1, math.ceil(1.0 / mu - 1e-12))
        counts = np.zeros(g.num_edges, dtype=np.int64)
        counts[support[0]] = k
        deg = _degree_from_counts(g, counts)
        least, tol = linalg.psd_margin(deg - np.eye(g.dim))
        linalg.check_bound(f"{k} = ceil(1/mu) copies of the edge fail to cover", -least, 0.0, tol)
        attempts, scale = 1, 1
    else:
        # The stated size only incorporates the k >= 2/mu requirement of its
        # own derivation when d >= 2; dimension one degenerates (log2 d = 0)
        # and needs the 2/mu floor restored, at the price of the bound flag.
        k_base = max(1, math.floor(formula), math.ceil(2.0 / mu) if g.dim == 1 else 1)
        for attempts, scale, sub in _attempt_schedule(seed, ESCALATION_STAGES):
            k = k_base * scale
            counts = make_rng(sub).multinomial(k, p)
            deg = _degree_from_counts(g, counts)
            if linalg.psd_leq(np.eye(g.dim), deg):
                break
        else:
            raise SamplingExhausted(f"covering retry budget exhausted after {attempts} attempts")
    beyond = k > formula
    return CoveringResult(
        kind="randomized-covering",
        edge_multiplicities={int(i): int(c) for i, c in enumerate(counts) if c},
        num_draws=k,
        sampled_average=deg,
        certified=not (beyond or scale > 1),
        seed=seed,
        beyond_bound=beyond,
        attempts=attempts,
        details=dict(details, scale=scale, min_eig_degree=linalg.min_eigenvalue(deg)),
    )


def draw_bound(eta: float, size: int, eps: float, tau: float) -> float:
    """The covering lemma's draw count 1 + eta size (2 ln2 log2(2 size)) / (eps^2 tau).

    size is the dimension (the vertex count, when the edges are diagonal).
    """
    return 1.0 + eta * size * (2.0 * LN2 * math.log2(2.0 * size)) / (eps * eps * tau)


def _sample_plan(formula: float, p: np.ndarray, draws):
    """Base draw count and escalation depth of the sampler (the tests' covering replay reads them too)."""
    if draws is not None:
        linalg.require_positive(draws=draws)
        return int(draws), 1
    if np.count_nonzero(p) == 1:
        return 1, ESCALATION_STAGES  # point mass reproduces the mixture exactly
    return max(1, math.floor(formula)), ESCALATION_STAGES


class SamplingExhausted(RuntimeError):
    """Every attempt a sampler's budget allows failed its checks; a larger draw count may not."""


def _budget_exhausted(attempts: int, ok_lower, ok_upper) -> SamplingExhausted:
    """The sampler's error once every attempt failed, naming the last one's failing side."""
    failing = {(False, False): "lower and upper", (False, True): "lower",
               (True, False): "upper"}[(ok_lower, ok_upper)]
    return SamplingExhausted(f"sampling budget exhausted after {attempts} attempts ({failing} side failing)")


def quantum_covering_sample(
    g: QuantumHypergraph, p, eps: float, tau: float, seed: int, draws: int | None = None
) -> CoveringResult:
    """Approximate the edge mixture rho by an i.i.d. multiset average rhobar.

    The eigenspace where the edge mixture falls below tau / dim is
    split off first (the mixture keeps mass at most tau there); on the
    complement the projected multiset average must sit between
    (1 - eps) and (1 + eps) times the projected mixture in PSD order.
    Draw count formula: 1 + eta dim (2 ln2 log2(2 dim)) / (eps^2 tau).
    When all edges share one trace q <= 1 the trace-norm consequence
    ||rho - rhobar||_1 <= (eps + tau) + sqrt(8 (eps + tau)) is enforced
    as well.  On diagonal edges this is the classical vertex-wise
    sampler: the split-off part is the vertices below tau / dim, and the
    sandwich holds vertex by vertex.

    Every operator compared lives in the span of the edges, so the work
    (_sample_in_span) runs on the s x s compressed edges (see
    QuantumHypergraph) while dim stays in the formula and the threshold.
    The dim - s zero eigenvalues of the mixture off the span fall in the
    split-off part.  The result lifts `sampled_average`, `pi0` and `pi1`
    to dim x dim.

    Both sides are decided from one spectrum.  With rho = U diag(w) U^dagger
    and D the kept eigenvalues (all >= tau / dim > 0), congruence by
    D^-1/2 U_k^dagger keeps the PSD order, so the sandwich holds exactly
    when the r x r whitened average X = D^-1/2 U_k^dagger rhobar U_k D^-1/2
    has its spectrum in [1 - eps, 1 + eps] (linalg.relative_margin).  The
    reported sandwich slacks are the relative ones, lambda_min(X) - (1 - eps)
    and (1 + eps) - lambda_max(X), never clamped; they do not depend on
    whether the graph is compressed, and they are infinite when no
    eigenvalue is kept.  The attempt loop may accept an attempt from its
    draw counts alone (_sample_in_span's ratio certificate); the slacks
    and the trace-norm distance reported are still those of the spectral
    test, run on the accepted counts, which must then pass it.
    """
    counts, ln, attempts, test, measured = _sample_in_span(g, p, eps, tau, seed, draws)
    rhobar, lower, upper, l1 = test(counts, ln) if measured is None else measured
    linalg.check_bound("accepted counts miss the spectral sandwich", -min(lower, upper), linalg.PSD_TOL)
    _, u, kept, excluded_mass, _ = test.mixture
    pi1 = g.lift(linalg.hermitize((u * kept.astype(float)) @ u.conj().T))
    if g.basis is not None:
        pi0 = linalg.hermitize(np.eye(g.dim) - pi1)
    else:
        pi0 = linalg.hermitize((u * (~kept).astype(float)) @ u.conj().T)
    formula = draw_bound(g.eta, g.dim, eps, tau)
    beyond = ln > formula
    details = {
        "eps": eps,
        "tau": tau,
        "eta": g.eta,
        "dim": g.dim,
        "draw_bound": formula,
        "threshold": tau / g.dim,
        "excluded_mass": excluded_mass,
        "sandwich_lower_slack": lower,
        "sandwich_upper_slack": upper,
        "l1_distance": l1,
        "l1_bound": test.l1_bound,
        "equal_edge_trace": test.l1_bound is not None,
        "scale": 2 ** ((attempts - 1) // RETRY_SEEDS),  # L doubles every RETRY_SEEDS attempts
    }
    return CoveringResult(
        kind="quantum-sample",
        edge_multiplicities={int(i): int(c) for i, c in enumerate(counts) if c},
        num_draws=ln,
        sampled_average=g.lift(rhobar),
        certified=not (beyond and draws is None),
        seed=seed,
        beyond_bound=beyond,
        attempts=attempts,
        pi0=pi0,
        pi1=pi1,
        details=details,
    )


class _SpectralTest:
    """The sampler's spectral test of one call: rhobar against rho on rho's kept eigenspace.

    Its set-up (`mixture`: rho, one eigh, the excluded-mass check, the
    whitening) is formed on first need, so a call whose
    attempts the ratio certificate decides makes none of it.
    """

    def __init__(self, g: QuantumHypergraph, p: np.ndarray, eps: float, tau: float, l1_bound):
        self.g, self.p, self.eps, self.tau, self.l1_bound = g, p, eps, tau, l1_bound

    @functools.cached_property
    def mixture(self) -> tuple:
        """(rho, its eigenbasis u, the mask of kept eigenvalues, the excluded mass, U_k D^-1/2)."""
        rho = linalg.hermitize(self.g.span_combination(self.p))
        w, u = linalg.eigh(rho)
        small = w < self.tau / self.g.dim  # strict: eigenvalues at the threshold stay
        excluded_mass = float(w[small].sum())
        linalg.check_bound("excluded eigenspace carries mass over tau", excluded_mass, self.tau, 1e-12)
        return rho, u, ~small, excluded_mass, u[:, ~small] / np.sqrt(w[~small])

    def __call__(self, counts: np.ndarray, ln: int) -> tuple:
        """(rhobar, lower slack, upper slack, l1 distance) of the counts; l1 is None outside the sandwich.

        Inside it the trace-norm bound is enforced, when it applies (l1_bound).
        """
        rho, *_, whiten = self.mixture
        rhobar = linalg.hermitize(self.g.span_combination(counts) / float(ln))
        lower, upper, inside = linalg.relative_margin(
            whiten.conj().T @ rhobar @ whiten, 1.0 - self.eps, 1.0 + self.eps
        )
        if not inside:
            return rhobar, float(lower), float(upper), None
        l1 = linalg.trace_norm(rho - rhobar)
        if self.l1_bound is not None:
            linalg.check_bound("sampled operator misses the trace-norm bound", l1, self.l1_bound, 1e-9)
        return rhobar, float(lower), float(upper), l1


def _sample_in_span(g: QuantumHypergraph, p, eps: float, tau: float, seed: int, draws: int | None):
    """quantum_covering_sample's attempt loop and checks, with nothing lifted to dim x dim.

    Returns (counts, num_draws, attempts, test, measured) of the accepted
    attempt: its edge draw counts, the call's _SpectralTest, and test's
    (rhobar, slacks, l1 distance) of those counts, or None when the ratio
    certificate accepted them without it.

    Ratio certificate.  With rho = sum_j p_j C_j and rhobar =
    sum_j (c_j / L) C_j, let r_j = c_j / (L p_j) - 1 over the edges with
    p_j > 0 (no draw lands elsewhere) and beta = max_j |r_j|.  Then
    rhobar - rho = sum_j r_j p_j C_j with every p_j C_j >= 0, so

        (1 + min_j r_j) rho <= rhobar <= (1 + max_j r_j) rho,

    and compressing by the projector onto rho's kept eigenspace keeps both
    inequalities: beta <= eps proves the sandwich, with both relative
    slacks at least eps - beta.  The triangle inequality gives
    ||rho - rhobar||_1 <= sum_j |c_j / L - p_j| tr C_j, which proves the
    equal-trace check whenever it is within that check's bound.  The
    excluded-mass check holds by counting: at most s <= dim eigenvalues
    of rho lie below tau / dim, so together they carry less than tau.
    An attempt the certificate accepts is thus one the spectral test
    accepts too, and the attempt returned is the one the spectral test
    alone would accept; the test runs only on the attempts the
    certificate leaves undecided.  A zero mixture is refused before any
    attempt, as a DomainError at hypergraph when every edge is zero, else
    at p, which then weighs only zero edges.

    Tolerance and rounding.  The C_j are PSD only up to the tolerance
    _set_edges accepts, C_j >= -delta with delta = PSD_TOL max(1, |w|)
    <= 2 PSD_TOL (edge spectra lie below 1 + PSD_TOL).  That moves
    rhobar - (1 + min r) rho by at most sum_j (r_j - min r) p_j delta
    <= 2 beta delta, and 2 beta delta dim / tau once whitened by the kept
    eigenvalues (all >= tau / dim); it moves ||C_j||_1 above tr C_j by at
    most 2 s delta.  The certificate therefore asks beta (1 + 2 delta dim
    / tau) <= eps and weighs |c_j / L - p_j| by tr C_j + 2 s delta.  It is
    used only while L < 2^53, so every count is an exact float (at paper
    constants the ladder's largest L, 8 times the first, stays far below
    that); r_j is then two roundings off, an error of a few 1e-16 (1 +
    beta), far inside the spectral test's own PSD_TOL.
    """
    linalg.require_positive(eps=eps, tau=tau)
    p = _check_distribution(p, g.num_edges)
    base, stages = _sample_plan(draw_bound(g.eta, g.dim, eps, tau), p, draws)
    traces = g.edge_traces()
    equal_trace = float(np.ptp(traces)) <= 1e-9 and float(traces.max()) <= 1.0 + 1e-9
    l1_bound = (eps + tau) + math.sqrt(8.0 * (eps + tau)) if equal_trace else None
    test = _SpectralTest(g, p, eps, tau, l1_bound)

    on = p > 0.0
    delta = 2.0 * linalg.PSD_TOL
    spread = 1.0 + 2.0 * delta * g.dim / tau
    norms = traces + 2.0 * g.span_dim * delta
    certify = float(p @ traces) > 0.0
    if not certify and not np.abs(g.span_combination(p)).max() > 0.0:
        raise DomainError("edge mixture is zero", "p" if np.abs(g.compressed).max() > 0.0 else "hypergraph")
    for attempts, scale, sub in _attempt_schedule(seed, stages):
        ln = base * scale
        counts = make_rng(sub).multinomial(ln, p)
        if certify and ln < 2**53:
            beta = float(np.abs(counts[on] / (ln * p[on]) - 1.0).max())
            if beta * spread <= eps and (
                l1_bound is None or float(np.abs(counts / ln - p) @ norms) <= l1_bound
            ):
                return counts, ln, attempts, test, None
        measured = test(counts, ln)
        if measured[3] is not None:
            return counts, ln, attempts, test, measured
    _, lower, upper, _ = measured
    raise _budget_exhausted(attempts, lower >= -linalg.PSD_TOL, upper >= -linalg.PSD_TOL)


def sample_family(graphs, ps, eps: float, tau: float, seed: int, draws: int | None = None):
    """Sample each graph's edge mixture ps[i] at one draw count L shared by all graphs.

    L is `draws` when prescribed (one stage), else max(1, the largest
    floor of the draw_bound formulas), doubled for up to ESCALATION_STAGES
    stages: a stage in which some graph's sampler exhausts its budget is
    abandoned whole.  Each stage draws one seed_stream(seed) seed per
    graph before it samples any, so a failure never moves a later seed.

    A graph with one edge is not sampled (counts [L], one attempt): the
    sampler's checks hold by construction.  Every multiset of one edge
    averages to that edge, the mixture itself, so the sandwich holds with
    all of eps to spare and the l1 distance is 0 up to rounding; the
    mixture has at most dim eigenvalues below tau / dim, so the excluded
    mass is below tau by counting alone.

    The other graphs are sampled by _sample_in_span, whose ratio
    certificate decides an attempt from its counts alone: with r_j =
    c_j / (L p_j) - 1 and every p_j C_j >= 0,

        (1 + min_j r_j) rho <= rhobar <= (1 + max_j r_j) rho,

    so max_j |r_j| <= eps proves the sandwich on every compression, the
    kept eigenspace included; sum_j |c_j / L - p_j| tr C_j bounds
    ||rho - rhobar||_1 for the equal-trace check; and the excluded-mass
    check holds by the counting argument above.  At paper constants L is
    large enough that the certificate decides practically every attempt,
    so no s x s eigensolve runs and no graph forms its compressed edge
    stack.  The C_j are PSD only up to the tolerance _set_edges accepts,
    and the certificate allows for it; it is used while L < 2^53, where
    the counts are exact floats (8 L < 2^53 covers the whole ladder), and
    r_j carries a rounding error far inside the spectral test's PSD_TOL.
    An attempt it leaves undecided gets the spectral test, which then
    decides exactly as it would alone (_sample_in_span).  That test forms
    the graph's compressed edge stack; a from_orbit graph drops it once
    sampled, so at most one graph's stack is alive at a time (a later
    stage forms it again), while a dense graph keeps the edges it holds.

    Returns (L, stages used, the formulas, [(edge draw counts, attempts)]).
    """
    if len(graphs) != len(ps):
        raise ValueError("one edge distribution per graph required")
    linalg.require_positive(eps=eps, tau=tau)
    formulas = [draw_bound(g.eta, g.dim, eps, tau) for g in graphs]
    if draws is not None:
        linalg.require_positive(draws=draws)
        base, stages = int(draws), 1
    else:
        base, stages = max([1] + [math.floor(f) for f in formulas]), ESCALATION_STAGES
    seeds = seed_stream(seed)
    for stage in range(stages):
        L = base * 2**stage
        subs = [next(seeds) for _ in graphs]
        drawn = []
        try:
            for g, p, sub in zip(graphs, ps, subs):
                if g.num_edges == 1:
                    drawn.append((np.array([L], dtype=np.int64), 1))
                else:
                    counts, _, attempts, *_ = _sample_in_span(g, p, eps, tau, sub, L)
                    drawn.append((counts, attempts))
                    if g._orbit is not None:
                        vars(g).pop("_span", None)  # formed again if a later stage reads it
        except SamplingExhausted as exc:
            failure = exc
        else:
            return L, stage + 1, formulas, drawn
    raise SamplingExhausted(f"sampling failed at every draw count up to {L}") from failure


def product_hypergraph(g: QuantumHypergraph, n: int) -> QuantumHypergraph:
    """n-fold tensor power: m^n word edges of side d^n, within one MAX_TENSOR_DIM^2 budget."""
    if n < 1:
        raise DomainError("n must be at least 1", "n")
    linalg.require_size("n", g.num_edges * g.dim**2, MAX_TENSOR_DIM**2, exponent=n,
                        message="product dimension overflow")
    if n == 1:
        return g
    edges = [linalg.kron_all(word) for word in itertools.product(g.edges, repeat=n)]
    return QuantumHypergraph(g.dim**n, edges, g.eta**n)


def _common_kernel(deg: np.ndarray) -> bool:
    """Whether the edges summing to deg share a (near-)kernel.

    Then no multiset, fractional weighting or edge mixture covers it.
    """
    w = np.linalg.eigvalsh(linalg.hermitize(deg))
    return w[0] <= linalg.spectral_tolerance(w)


def covering_number_bruteforce(g: QuantumHypergraph, n: int):
    """Exact covering number of the n-fold power by multiset search.

    Returns math.inf when the edges share a common (near-)kernel, so no
    multiset can ever cover.  The search starts at c_n >= c~_1^n, read off
    the n = 1 LP, and refuses each k whose multisets overrun the budget.
    """
    return _bruteforce(g, n, covering_capacity(g))


def _bruteforce(g: QuantumHypergraph, n: int, cap: CapacityResult):
    """Brute force given the n = 1 LP; every count is checked before the product is built."""
    m = linalg.require_size("n", g.num_edges, MAX_BRUTEFORCE_EDGES, exponent=n,
                            message="edge set too large for exhaustive search")
    if math.isinf(cap.bits):
        return math.inf
    # every cover is a fractional one: k >= c~_1^n >= (1 / value_upper)^n;
    # a multiset of k edges holds k draws, so k must fit the budget as well
    floor = _power(1.0 / cap.details["value_upper"], n) * (1.0 - 1e-9)
    message = "multiset search budget exceeded"
    k = max(1, math.ceil(linalg.require_size("n", floor, MAX_BRUTEFORCE_MULTISETS, message)))
    walked = linalg.require_size("n", math.comb(m + k - 1, k), MAX_BRUTEFORCE_MULTISETS, message)
    gn = product_hypergraph(g, n)
    if _common_kernel(degree(gn)):
        return math.inf
    # a multiset's degree is its edge counts times the edge stack, so a
    # chunk holds the same number of multisets at every k
    stack = np.stack(gn.edges).reshape(m, -1)
    eye = np.eye(gn.dim)
    chunk = max(1, BRUTEFORCE_CHUNK_ENTRIES // gn.dim**2)
    while True:
        for counts in linalg.compositions(k, m, chunk):
            if linalg.psd_leq(eye, (counts @ stack).reshape(-1, gn.dim, gn.dim)).any():
                return k
        k += 1
        walked += math.comb(m + k - 1, k)
        linalg.require_size("n", walked, MAX_BRUTEFORCE_MULTISETS, message)


class PackingLP:
    """The covering LP over a finite cut set, held as its dual between rounds.

    Cut k is a unit vector psi_k with column a_k = (<psi_k|E_j|psi_k>)_j
    over the m edges.  The packing LP max sum(y) over y >= 0 with
    sum_k y_k a_k <= 1 is kept in standard form [I | a_1 .. a_K] (s, y) = 1
    with an m x m basis: slacks are columns 0..m-1 and cuts follow in
    the order they were added, the order Bland's rule scans.  The slack
    basis is feasible at y = 0, and a new cut is a new column, so the
    last optimal basis stays feasible: no phase I, no rebuild.  After a
    solve, v = c_B B^-1 holds the simplex multipliers, which are the
    covering weights, and y the packing weights of the cuts;
    sum(v) = sum(y) at every basis.
    """

    def __init__(self, stack: np.ndarray):
        m = stack.shape[0]
        self.stack = stack
        self.columns = np.eye(m)
        self.cuts = np.empty((stack.shape[-1], 0), dtype=np.complex128)
        self.basis = np.arange(m)
        self.binv = np.eye(m)
        self.v = np.zeros(m)
        self.y = np.zeros(0)

    def add_cuts(self, cuts: np.ndarray) -> None:
        """Append one column per cut (the columns of cuts, unit vectors)."""
        a = np.einsum("ik,jik->jk", cuts.conj(), self.stack @ cuts).real
        self.columns = np.hstack([self.columns, a])
        self.cuts = np.hstack([self.cuts, cuts])

    def solve(self) -> None:
        """Primal simplex with Bland's rule from the current basis.

        Bland's rule (Math. Oper. Res. 2, 1977) enters the first column
        that gains and breaks ratio ties by the least basic index, so
        the simplex cannot cycle.  Each pivot updates B^-1 by one
        rank-one step; once the solve ends, B^-1 (the next round's start),
        v and y are solved afresh from the basis columns in index order.  LP_FEASIBILITY_TOL is the one tolerance: the
        least reduced cost that enters, the least pivot element, and the
        width of a ratio tie.
        """
        tol = LP_FEASIBILITY_TOL
        a, basis, binv = self.columns, self.basis, self.binv
        m, n = a.shape
        gain = np.ones(n)
        gain[:m] = 0.0
        x = np.maximum(binv.sum(axis=1), 0.0)
        basic = np.zeros(n, dtype=bool)
        basic[basis] = True
        for _ in range(SIMPLEX_PIVOTS):
            reduced = gain - (gain[basis] @ binv) @ a
            # a basic column's reduced cost is 0 only up to rounding
            # (about 3e-12): letting it re-enter cycles
            entering = np.flatnonzero((reduced > tol) & ~basic)
            if not entering.size:
                break
            q = entering[0]
            d = binv @ a[:, q]
            rows = np.flatnonzero(d > tol)
            if not rows.size:
                raise RuntimeError("packing LP unbounded: the edges share a near-kernel")
            ratios = x[rows] / d[rows]
            ties = rows[ratios <= ratios.min() + tol]
            r = ties[np.argmin(basis[ties])]
            step = x[r] / d[r]
            x -= step * d
            x[r] = step
            np.maximum(x, 0.0, out=x)
            row = binv[r] / d[r]
            binv -= np.outer(d, row)
            binv[r] = row
            basic[basis[r]] = False
            basic[q] = True
            basis[r] = q
        else:
            raise RuntimeError("simplex did not converge")
        # in index order, so the state depends on the basis set alone; y
        # and v come from solves, not products with B^-1, which would be
        # off by cond(B) ulps (cond(B) reaches 1e5 near the optimum)
        basis.sort()
        b = a[:, basis]
        solved = np.linalg.solve(b, np.hstack([np.ones((m, 1)), np.eye(m)]))
        self.binv = solved[:, 1:]
        self.v = np.maximum(np.linalg.solve(b.T, gain[basis]), 0.0)
        y = np.zeros(n)
        y[basis] = np.maximum(solved[:, 0], 0.0)
        self.y = y[m:]

    def dual_witness(self) -> np.ndarray:
        """Y = sum_k y_k |psi_k><psi_k|, positive semidefinite by construction."""
        return (self.cuts * self.y) @ self.cuts.conj().T


def linprog(lp: PackingLP, cuts: np.ndarray) -> PackingLP:
    """One cutting-plane round: add the cuts to lp and re-optimize from its last basis.

    _fractional_cover calls this module attribute by name once per
    round, so a wrapper set on covering.linprog sees every LP round.
    """
    lp.add_cuts(cuts)
    lp.solve()
    return lp


def _fractional_cover(stack: np.ndarray, deg: np.ndarray, tol: float):
    """Cutting-plane solution of min sum(v) over v >= 0 with sum_j v_j E_j >= identity.

    stack holds the edges E_j and deg their sum, which must have no
    common kernel.  The semi-infinite constraint set {<psi|.|psi> >= 1}
    is grown from the eigenbasis of deg by deficient eigenvectors; each
    round adds them to one warm-started PackingLP (linprog), and the
    loop stops once the weighted degree's least eigenvalue lam reaches
    1 - tol.  Returns the cover weights v, lam, the dual witness Y of
    the last round and the number of rounds.  v / lam is feasible, so
    sum(v) / lam bounds the optimum from above; Y is positive
    semidefinite, so weak duality bounds it from below by
    tr Y / max_j tr(Y E_j), whatever the LP solve achieved.
    """
    lp = PackingLP(stack)
    _, cuts = linalg.eigh(deg)
    for rounds in range(1, 2001):
        linprog(lp, cuts)
        w, u = linalg.eigh(np.tensordot(lp.v, stack, axes=1))
        lam = float(w[0])
        if lam >= 1.0 - tol:
            return lp.v, lam, lp.dual_witness(), rounds
        # cut along every deficient eigenvector, not just the least one;
        # one cut per round can stall arbitrarily close to feasibility
        cuts = u[:, w < 1.0]
    raise RuntimeError("cutting planes did not converge")


@dataclass(frozen=True)
class CapacityResult:
    """Covering capacity in bits with its optimizing edge distribution."""

    bits: float
    value: float
    witness: np.ndarray
    iterations: int
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "bits": self.bits if math.isfinite(self.bits) else "inf",
            "value": self.value,
            "witness": [float(x) for x in self.witness],
            "iterations": self.iterations,
            "details": dict(self.details),
        }


def covering_capacity(g: QuantumHypergraph, tol: float = 1e-9) -> CapacityResult:
    """Exponential growth rate of product covering numbers, in bits.

    The capacity is -log2 of max_P lambda_min(sum_E P(E) E), which LP
    duality equates with 1 / c~, the reciprocal fractional covering
    number.  It is read off the fractional-covering LP as a bracket of
    two checked witnesses.  With cover weights v and lam the least
    eigenvalue of sum_j v_j E_j, the witness v / sum(v) attains value =
    lam / sum(v).  The dual witness Y >= 0 caps every mixture at
    value_upper = max_j tr(Y E_j) / tr Y, since lambda_min(sum_E P(E) E)
    tr Y <= sum_E P(E) tr(Y E); value <= value_upper is enforced through
    check_bound, so the bracket does not rest on the LP being solved to
    optimality.  At the LP's optimum it is at most a factor 1/(1 - tol)
    wide.  iterations counts LP rounds.  A family whose mixtures are all
    singular has infinite capacity, which is returned as math.inf (with
    a uniform witness) rather than raised.
    """
    if not tol >= LP_FEASIBILITY_TOL:
        raise DomainError(
            f"tol must be >= {LP_FEASIBILITY_TOL}, the LP's feasibility tolerance", "tol"
        )
    deg = degree(g)
    m = g.num_edges
    if _common_kernel(deg):
        return CapacityResult(math.inf, 0.0, np.full(m, 1.0 / m), 0, {"tol": tol, "singular": True})
    stack = np.stack(g.edges)
    v, lam, dual, rounds = _fractional_cover(stack, deg, tol)
    total = float(v.sum())
    value = lam / total
    # tr(Y E_j) = <vec E_j, vec Y^T>: one product for all edges
    loads = (stack.reshape(m, -1) @ dual.T.reshape(-1)).real
    upper = float(loads.max() / np.trace(dual).real)
    linalg.check_bound("covering capacity bracket", value, upper, BRACKET_ROUNDING * upper)
    # the two ends may cross by rounding alone; the upper end never drops
    # below what the witness v attains
    return CapacityResult(-math.log2(value), value, v / total, rounds,
                          {"tol": tol, "value_upper": max(upper, value)})


def _power(base: float, n) -> float:
    """base**n, or math.inf past the float range."""
    try:
        return base**n
    except OverflowError:
        return math.inf


def generalized_covering_number(g: QuantumHypergraph, n: int, tol: float = 1e-9) -> float:
    """Least total weight of a fractional covering of the n-fold power.

    c~_n = c~_1^n: if sum_j v_j E_j >= I then sum v_j v_k E_j (x) E_k >= I,
    and a dual Y tensors to Y (x) Y as tr(Y (x) Y . E_j (x) E_k) = tr(Y E_j) tr(Y E_k).
    So one n = 1 LP (covering_capacity) gives (sum(v) / lam)^n =
    value^-n, achievable and at most a factor (1 - tol)^-n above the
    optimum; past the float range it is math.inf.
    """
    if n < 1:
        raise DomainError("n must be at least 1", "n")
    cap = covering_capacity(g, tol)
    if math.isinf(cap.bits):
        raise ValueError("edges share a common kernel, no fractional covering exists")
    return _power(1.0 / cap.value, n)


def product_covering_table(g: QuantumHypergraph, n_values, tol: float = 1e-8) -> list[dict]:
    """Rows of (n, exact, fractional, capacity) covering numbers.

    Brute force entries degrade to None where the edge set outgrows the
    exhaustive-search budget instead of failing the whole table.
    c~_n is multiplicative (see generalized_covering_number), so one
    n = 1 LP (covering_capacity) gives c_tilde_n = value^-n and
    pow2_Cn = 2^(bits n); c_tilde_n is None only for a common kernel
    (infinite bits).  Entries past the float range are math.inf.
    """
    n_values = list(n_values)
    if not all(n >= 1 for n in n_values):
        raise DomainError("n_values must be at least 1", "n_values")
    cap = covering_capacity(g, tol)
    rows = []
    for n in n_values:
        try:
            c_n = _bruteforce(g, n, cap)
        except DomainError:
            c_n = None
        c_tilde = None if math.isinf(cap.bits) else _power(1.0 / cap.value, n)
        rows.append({"n": int(n), "c_n": c_n, "c_tilde_n": c_tilde,
                     "pow2_Cn": _power(2.0, cap.bits * n)})
    return rows
