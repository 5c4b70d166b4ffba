"""Hypergraph coverings, classical and noncommutative.

A quantum hypergraph is a finite family of effects (operators between
zero and the identity) on a d-dimensional space; a covering is a
sub(multi)set of edges whose sum dominates the identity.  This module
implements randomized covering constructions, the sampling
constructions that approximate an edge mixture by a small multiset
average, exact and fractional covering numbers of tensor-power
hypergraphs, and the covering capacity that governs their exponential
growth.

Sampling ops share a retry protocol: up to RETRY_SEEDS fresh sub-seeds
at the formula's draw count, then the count escalates by factors of two
(results found after escalation are flagged beyond_bound and are not
certified).  Callers may instead prescribe the draw count, in which
case no escalation happens and exhaustion raises.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import linalg
from .linalg import (LN2, MAX_BRUTEFORCE_EDGES, MAX_BRUTEFORCE_MULTISETS, MAX_MATERIALIZED_DRAWS,
                     MAX_TENSOR_DIM, DomainError, check_distribution as _check_distribution)
from .rng import make_rng, random_effect, seed_stream

RETRY_SEEDS = 64
ESCALATION_STAGES = 4  # draw counts 1x, 2x, 4x, 8x
# Brute force forms the degrees of multisets in chunks of at most this
# many complex entries (chunk x D^2) before one batched order check.
BRUTEFORCE_CHUNK_ENTRIES = 1 << 14
# The cutting-plane LP meets its cuts to this feasibility tolerance, so a
# finer covering tol would stall for the full round budget.
LP_FEASIBILITY_TOL = 1e-10


class ClassicalHypergraph:
    """Vertex-indexed hypergraph with a weight measure on every edge.

    Vertices are 0..num_vertices-1.  Each edge is a subset of vertices
    carrying a nonnegative measure supported inside it; every single
    weight is capped by eta.
    """

    def __init__(self, num_vertices: int, edges, eta: float):
        self.num_vertices = int(num_vertices)
        if self.num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        self.eta = float(eta)
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        supports = []
        rows = []
        for support, measure in edges:
            sup = frozenset(int(v) for v in support)
            if not sup <= set(range(self.num_vertices)):
                raise ValueError("edge support outside the vertex range")
            row = np.zeros(self.num_vertices)
            for v, w in dict(measure).items():
                v, w = int(v), float(w)
                if w < 0:
                    raise ValueError("edge measures must be nonnegative")
                if v not in sup:
                    raise ValueError("edge measure leaks outside its support")
                row[v] = w
            if row.max(initial=0.0) > self.eta + 1e-12:
                raise ValueError("edge measure exceeds the eta cap")
            supports.append(sup)
            rows.append(row)
        if not rows:
            raise ValueError("at least one edge required")
        self.supports = tuple(supports)
        self.weights = np.array(rows)  # (num_edges, num_vertices)

    @property
    def num_edges(self) -> int:
        return len(self.supports)

    def mean_measure(self, p) -> np.ndarray:
        """Mixture measure sum_E P(E) Q_E as a dense vector."""
        p = _check_distribution(p, self.num_edges)
        q = np.zeros(self.num_vertices)
        for e in range(self.num_edges):  # fixed order, see _average
            q += p[e] * self.weights[e]
        return q

    def edge_masses(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def to_json(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "eta": self.eta,
            "edges": [
                {
                    "support": sorted(sup),
                    "measure": {str(v): float(self.weights[i, v]) for v in sorted(sup)},
                }
                for i, sup in enumerate(self.supports)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ClassicalHypergraph":
        edges = [
            (e["support"], {int(v): w for v, w in e["measure"].items()})
            for e in obj["edges"]
        ]
        return cls(obj["num_vertices"], edges, obj["eta"])


def _check_graph_header(dim, eta) -> int:
    dim = int(dim)
    linalg.require_positive(dim=dim)
    if eta is not None:
        linalg.require_positive(eta=float(eta))
    return dim


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
    from dense edges keep Q = identity (`basis` None, C_j = E_j);
    `from_orbit` builds edges that relabel one edge's indices, spans Q
    by one QR when they are narrow, and validates them all with one
    eigensolve.  The dense `edges` are lifted on first access.
    """

    def __init__(self, dim: int, edges, eta: float | None):
        self.dim = _check_graph_header(dim, eta)
        mats = []
        for e in edges:
            m = linalg.require_hermitian(e, name="edge")
            if m.shape != (self.dim, self.dim):
                raise ValueError("edge dimension mismatch")
            mats.append(m)
        if not mats:
            raise ValueError("at least one edge required")
        stack = np.stack(mats)
        self._set_edges(None, stack, np.linalg.eigvalsh(stack), eta)

    @classmethod
    def from_orbit(cls, factor, weights, perms) -> "QuantumHypergraph":
        """Edges E_j = E[perm_j][:, perm_j], relabelings of one E = M diag(w) M^dagger.

        factor M is dim x r, the weights w >= 0 and every perms[j] a
        permutation of range(dim), so edge j has the factor M[perm_j], the
        rows of M gathered, and the spectrum of E.  One eigensolve
        therefore validates every edge and gives eta: of the r x r Gram
        matrix F^dagger F, F = M diag(sqrt(w)), when r < dim (it has the
        nonzero eigenvalues of E = F F^dagger, and the zeros it lacks
        decide nothing), else of C = M diag(w) M^dagger.  When
        0 < m r < dim for m = len(perms), one QR of the row gathers
        [M[perm_1] ... M[perm_m]] = Q R spans the edges: C_j = R_j diag(w)
        R_j^dagger with R_j the j-th r columns of R.  Otherwise Q = identity
        and C_j = C[perm_j][:, perm_j], an exact relabeling of one float
        matrix.
        """
        factor = np.asarray(factor, dtype=np.complex128)
        weights = np.asarray(weights, dtype=float)
        perms = np.asarray(perms, dtype=np.intp)
        if factor.ndim != 2 or weights.shape != (factor.shape[1],):
            raise ValueError("factor dimension mismatch")
        dim, r = factor.shape
        if perms.ndim != 2 or not len(perms):
            raise ValueError("at least one edge required")
        if perms.shape[1] != dim or (np.sort(perms, axis=1) != np.arange(dim)).any():
            raise ValueError("every edge needs a permutation of the factor's rows")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        g = cls.__new__(cls)
        g.dim = _check_graph_header(dim, None)
        m = len(perms)
        if 0 < m * r < dim:
            basis, coeffs = np.linalg.qr(np.hstack([factor[p] for p in perms]))
            compressed = np.empty((m, m * r, m * r), dtype=np.complex128)
            for c, f in zip(compressed, np.split(coeffs, m, axis=1)):
                c[...] = linalg.hermitize((f * weights) @ f.conj().T)
        else:
            c = linalg.hermitize((factor * weights) @ factor.conj().T)
            basis, compressed = None, c[perms[:, :, None], perms[:, None, :]]
        if 0 < r < dim:  # otherwise the branch above set c
            f = factor * np.sqrt(weights)
            c = linalg.hermitize(f.conj().T @ f)
        g._set_edges(basis, compressed, np.linalg.eigvalsh(c)[None], None)
        return g

    def _set_edges(self, basis, compressed: np.ndarray, w: np.ndarray, eta: float | None) -> None:
        # One spectrum decides both orders: E >= 0 on the spectrum w, and
        # cap*I - E >= 0 on its spectrum cap - w, each with its own tolerance.
        # w is a stack holding every edge's nonzero eigenvalues; the zeros
        # it may lack (off the span, or off a low-rank factor) change neither
        # decision, nor the tolerances (both read max(1, |.|)), nor the tight eta.
        if (w[:, 0] < -linalg.spectral_tolerance(w)).any():
            raise ValueError("edge is not positive semidefinite")
        self.eta = min(1.0, float(np.abs(w).max())) if eta is None else float(eta)
        gap = min(1.0, self.eta) - w
        if (gap[:, -1] < -linalg.spectral_tolerance(gap)).any():
            raise ValueError("edge exceeds the eta cap")
        self.basis = basis
        self.compressed = compressed

    @property
    def num_edges(self) -> int:
        return len(self.compressed)

    @property
    def span_dim(self) -> int:
        """s, the number of span basis columns (dim when the basis is the identity)."""
        return self.compressed.shape[-1]

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
        """Edge mixture sum_E P(E) E."""
        # Accumulated edge by edge so the diagonal case runs the exact
        # same float additions as ClassicalHypergraph.mean_measure.
        return _degree_from_counts(self, _check_distribution(p, self.num_edges))

    def edge_traces(self) -> np.ndarray:
        return np.array([float(np.trace(c).real) for c in self.compressed])

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        for e in self.edges:
            if np.abs(e - np.diag(np.diag(e))).max() > tol:
                return False
        return True

    def to_classical(self) -> ClassicalHypergraph:
        """Induced classical hypergraph when every edge is diagonal."""
        if not self.is_diagonal():
            raise ValueError("edges are not diagonal")
        edges = []
        for e in self.edges:
            d = np.real(np.diag(e))
            support = [v for v in range(self.dim) if d[v] != 0.0]
            edges.append((support, {v: float(d[v]) for v in support}))
        return ClassicalHypergraph(self.dim, edges, self.eta)

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


class _OnFirstRead:
    """Dataclass field that may be given as a zero-argument callable, called once on first read."""

    def __init__(self, *default):
        self.default = default

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:  # dataclass asks the class for the field's default
            if not self.default:
                raise AttributeError(self.slot)
            return self.default[0]
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class CoveringResult:
    """One sampled covering or mixture approximation.

    edge_multiplicities maps edge index to how often it was drawn; the
    draw list itself is only materialized on demand since prescribed
    draw counts can be far too large to store one index per draw.
    certified means every numerically checkable guarantee of the
    generating construction passed and the draw count was not escalated
    past the formula; beyond_bound records a draw count above the
    formula's value, whether by escalation or by the caller's choice.
    For randomized coverings `sampled_average` holds the multiset
    degree, for the samplers the multiset average (a measure vector in
    the classical case, an operator otherwise).  `sampled_average`,
    `pi0` and `pi1` may be given as zero-argument callables, called on
    first read (to_json reads all three), so a caller that never reads
    them never forms them.
    """

    kind: str
    edge_multiplicities: dict
    num_draws: int
    sampled_average: np.ndarray = _OnFirstRead()
    certified: bool
    seed: int
    beyond_bound: bool = False
    attempts: int = 1
    excluded_vertices: tuple = ()
    pi0: np.ndarray | None = _OnFirstRead(None)
    pi1: np.ndarray | None = _OnFirstRead(None)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.edge_multiplicities.values()) != self.num_draws:
            raise ValueError("edge multiplicities must sum to num_draws")

    @property
    def L(self) -> int:
        return self.num_draws

    @property
    def picked_edge_indices(self) -> list:
        linalg.require_size("num_draws", self.num_draws, MAX_MATERIALIZED_DRAWS,
                            "draw list too large to materialize, use edge_multiplicities")
        out = []
        for i in sorted(self.edge_multiplicities):
            out.extend([i] * self.edge_multiplicities[i])
        return out

    def counts_vector(self, num_edges: int) -> np.ndarray:
        counts = np.zeros(num_edges, dtype=np.int64)
        for i, c in self.edge_multiplicities.items():
            counts[int(i)] = c
        return counts

    def to_json(self) -> dict:
        avg = self.sampled_average
        return {
            "kind": self.kind,
            "edge_multiplicities": {str(i): int(c) for i, c in sorted(self.edge_multiplicities.items())},
            "num_draws": int(self.num_draws),
            "sampled_average": (
                [float(x) for x in avg] if avg.ndim == 1 else linalg.matrix_to_json(avg)
            ),
            "certified": bool(self.certified),
            "seed": int(self.seed),
            "beyond_bound": bool(self.beyond_bound),
            "attempts": int(self.attempts),
            "excluded_vertices": [int(v) for v in self.excluded_vertices],
            "pi0": None if self.pi0 is None else linalg.matrix_to_json(self.pi0),
            "pi1": None if self.pi1 is None else linalg.matrix_to_json(self.pi1),
            "details": dict(self.details),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CoveringResult":
        avg = obj["sampled_average"]
        return cls(
            kind=obj["kind"],
            edge_multiplicities={int(i): int(c) for i, c in obj["edge_multiplicities"].items()},
            num_draws=obj["num_draws"],
            sampled_average=(
                np.array(avg, dtype=float) if isinstance(avg, list) else linalg.matrix_from_json(avg)
            ),
            certified=obj["certified"],
            seed=obj["seed"],
            beyond_bound=obj["beyond_bound"],
            attempts=obj["attempts"],
            excluded_vertices=tuple(obj["excluded_vertices"]),
            pi0=None if obj["pi0"] is None else linalg.matrix_from_json(obj["pi0"]),
            pi1=None if obj["pi1"] is None else linalg.matrix_from_json(obj["pi1"]),
            details=dict(obj["details"]),
        )


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
        beyond = k > formula
        return CoveringResult(
            kind="randomized-covering",
            edge_multiplicities={int(support[0]): k},
            num_draws=k,
            sampled_average=deg,
            certified=not beyond,
            seed=seed,
            beyond_bound=beyond,
            attempts=1,
            details=dict(details, scale=1, min_eig_degree=linalg.min_eigenvalue(deg)),
        )

    # The stated size only incorporates the k >= 2/mu requirement of its
    # own derivation when d >= 2; dimension one degenerates (log2 d = 0)
    # and needs the 2/mu floor restored, at the price of the bound flag.
    k_base = max(1, math.floor(formula), math.ceil(2.0 / mu) if g.dim == 1 else 1)
    attempts = 0
    for attempts, scale, sub in _attempt_schedule(seed, ESCALATION_STAGES):
        k = k_base * scale
        counts = make_rng(sub).multinomial(k, p)
        deg = _degree_from_counts(g, counts)
        if linalg.psd_leq(np.eye(g.dim), deg):
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
    raise RuntimeError(f"covering retry budget exhausted after {attempts} attempts")


def _vector_leq(x: np.ndarray, y: np.ndarray) -> bool:
    """Entrywise x <= y with the tolerance psd_leq applies to diagonals."""
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    if diff.size == 0:
        return True
    tol = linalg.PSD_TOL * max(1.0, float(np.abs(diff).max()))
    return float(diff.min()) >= -tol


def draw_bound(eta: float, size: int, eps: float, tau: float) -> float:
    """The covering lemma's draw count 1 + eta size (2 ln2 log2(2 size)) / (eps^2 tau).

    size is the vertex count or the dimension.
    """
    return 1.0 + eta * size * (2.0 * LN2 * math.log2(2.0 * size)) / (eps * eps * tau)


def _sample_plan(formula: float, p: np.ndarray, draws):
    """Base draw count and escalation depth shared by both samplers."""
    if draws is not None:
        linalg.require_positive(draws=draws)
        return int(draws), 1
    if np.count_nonzero(p) == 1:
        return 1, ESCALATION_STAGES  # point mass reproduces the mixture exactly
    return max(1, math.floor(formula)), ESCALATION_STAGES


def _budget_exhausted(attempts: int, ok_lower, ok_upper) -> RuntimeError:
    """The error both samplers raise once every attempt failed, naming the last one's failing side."""
    failing = {(False, False): "lower and upper", (False, True): "lower",
               (True, False): "upper"}[(ok_lower, ok_upper)]
    return RuntimeError(f"sampling budget exhausted after {attempts} attempts ({failing} side failing)")


def classical_covering_sample(
    g: ClassicalHypergraph, p, eps: float, tau: float, seed: int, draws: int | None = None
) -> CoveringResult:
    """Approximate the mixture measure by an i.i.d. multiset average.

    Vertices where the mixture is below tau / num_vertices are set
    aside (their total mass stays below tau); on the rest the sampled
    average has to fall within a factor (1 +- eps) of the mixture,
    vertex by vertex.  The draw count comes from the
    1 + eta |V| (2 ln2 log2(2|V|)) / (eps^2 tau) formula unless
    prescribed.  When all edges carry one common total mass q <= 1 the
    total variation ||Q - Qbar||_1 <= 2 eps + 2 tau is also enforced.
    """
    linalg.require_positive(eps=eps, tau=tau)
    p = _check_distribution(p, g.num_edges)
    q = g.mean_measure(p)
    nv = g.num_vertices
    keep = q >= tau / nv  # strict drop below the threshold, ties stay
    excluded = tuple(int(v) for v in np.flatnonzero(~keep))
    excluded_mass = float(q[~keep].sum())
    linalg.check_bound("excluded vertices carry mass over tau", excluded_mass, tau, 1e-12)

    formula = draw_bound(g.eta, nv, eps, tau)
    base, stages = _sample_plan(formula, p, draws)
    masses = g.edge_masses()
    equal_mass = float(np.ptp(masses)) <= 1e-9 and float(masses.max()) <= 1.0 + 1e-9

    for attempts, scale, sub in _attempt_schedule(seed, stages):
        ln = base * scale
        counts = make_rng(sub).multinomial(ln, p)
        qbar = np.zeros(nv)
        for e in range(g.num_edges):
            qbar += float(counts[e]) * g.weights[e]
        qbar /= float(ln)
        ok_lower = _vector_leq((1.0 - eps) * q[keep], qbar[keep])
        ok_upper = _vector_leq(qbar[keep], (1.0 + eps) * q[keep])
        if ok_lower and ok_upper:
            l1 = float(np.abs(q - qbar).sum())
            l1_bound = 2.0 * eps + 2.0 * tau if equal_mass else None
            if equal_mass:
                linalg.check_bound("sampled measure misses the total variation bound",
                                   l1, l1_bound, 1e-9)
            beyond = ln > formula
            return CoveringResult(
                kind="classical-sample",
                edge_multiplicities={int(i): int(c) for i, c in enumerate(counts) if c},
                num_draws=ln,
                sampled_average=qbar,
                certified=not (beyond and draws is None),
                seed=seed,
                beyond_bound=beyond,
                attempts=attempts,
                excluded_vertices=excluded,
                details={
                    "eps": eps,
                    "tau": tau,
                    "eta": g.eta,
                    "num_vertices": nv,
                    "draw_bound": formula,
                    "threshold": tau / nv,
                    "excluded_mass": excluded_mass,
                    "l1_distance": l1,
                    "l1_bound": l1_bound,
                    "equal_edge_mass": equal_mass,
                    "scale": scale,
                },
            )
    raise _budget_exhausted(attempts, ok_lower, ok_upper)


def quantum_covering_sample(
    g: QuantumHypergraph, p, eps: float, tau: float, seed: int, draws: int | None = None
) -> CoveringResult:
    """Operator analog of classical_covering_sample.

    The eigenspace where the edge mixture falls below tau / dim is
    split off first (the mixture keeps mass at most tau there); on the
    complement the projected multiset average must sit between
    (1 - eps) and (1 + eps) times the projected mixture in PSD order.
    Draw count formula: 1 + eta dim (2 ln2 log2(2 dim)) / (eps^2 tau).
    When all edges share one trace q <= 1 the trace-norm consequence
    ||rho - rhobar||_1 <= (eps + tau) + sqrt(8 (eps + tau)) is enforced
    as well.

    Every operator compared lives in the span of the edges, so the work
    runs on the s x s compressed edges (see QuantumHypergraph) while
    dim stays in the formula and the threshold.  The dim - s zero
    eigenvalues of the mixture off the span fall in the split-off part.
    `sampled_average`, `pi0` and `pi1` are lifted to dim x dim on first
    read of the result.  The reported sandwich slacks are the least
    eigenvalues of pi1 rhobar pi1 - (1 - eps) pi1 rho pi1 and
    (1 + eps) pi1 rho pi1 - pi1 rhobar pi1, read off the spectra that
    decide the order checks; when s < dim each is min(0, its compressed
    value), since the full operators vanish off the span.
    """
    linalg.require_positive(eps=eps, tau=tau)
    p = _check_distribution(p, g.num_edges)
    rho = linalg.hermitize(g.span_combination(p))
    w, u = linalg.eigh(rho)
    if not np.abs(w).max() > 0.0:
        raise ValueError("edge mixture is zero")
    small = w < tau / g.dim  # strict: eigenvalues at the threshold stay
    p1 = linalg.hermitize((u * (~small).astype(float)) @ u.conj().T)
    excluded_mass = float(w[small].sum())
    linalg.check_bound("excluded eigenspace carries mass over tau", excluded_mass, tau, 1e-12)
    proj = linalg.hermitize(p1 @ rho @ p1)
    compressed = g.basis is not None

    formula = draw_bound(g.eta, g.dim, eps, tau)
    base, stages = _sample_plan(formula, p, draws)
    traces = g.edge_traces()
    equal_trace = float(np.ptp(traces)) <= 1e-9 and float(traces.max()) <= 1.0 + 1e-9

    for attempts, scale, sub in _attempt_schedule(seed, stages):
        ln = base * scale
        counts = make_rng(sub).multinomial(ln, p)
        rhobar = linalg.hermitize(g.span_combination(counts) / float(ln))
        projbar = linalg.hermitize(p1 @ rhobar @ p1)
        slack, tol = linalg.psd_margin(
            np.stack([projbar - (1.0 - eps) * proj, (1.0 + eps) * proj - projbar])
        )
        ok_lower, ok_upper = slack >= -tol
        if ok_lower and ok_upper:
            l1 = linalg.trace_norm(rho - rhobar)
            l1_bound = (eps + tau) + math.sqrt(8.0 * (eps + tau)) if equal_trace else None
            if equal_trace:
                linalg.check_bound("sampled operator misses the trace-norm bound", l1, l1_bound, 1e-9)
            pi1 = functools.cache(functools.partial(g.lift, p1))
            if compressed:
                slack = np.minimum(slack, 0.0)

                def pi0():
                    return linalg.hermitize(np.eye(g.dim) - pi1())
            else:
                def pi0():
                    return linalg.hermitize((u * small.astype(float)) @ u.conj().T)
            beyond = ln > formula
            return CoveringResult(
                kind="quantum-sample",
                edge_multiplicities={int(i): int(c) for i, c in enumerate(counts) if c},
                num_draws=ln,
                sampled_average=functools.partial(g.lift, rhobar),
                certified=not (beyond and draws is None),
                seed=seed,
                beyond_bound=beyond,
                attempts=attempts,
                pi0=pi0,
                pi1=pi1,
                details={
                    "eps": eps,
                    "tau": tau,
                    "eta": g.eta,
                    "dim": g.dim,
                    "draw_bound": formula,
                    "threshold": tau / g.dim,
                    "excluded_mass": excluded_mass,
                    "sandwich_lower_slack": float(slack[0]),
                    "sandwich_upper_slack": float(slack[1]),
                    "l1_distance": l1,
                    "l1_bound": l1_bound,
                    "equal_edge_trace": equal_trace,
                    "scale": scale,
                },
            )
    raise _budget_exhausted(attempts, ok_lower, ok_upper)


def replay_covering_result(
    g, result: CoveringResult, p=None, eps: float | None = None, tau: float | None = None
) -> dict:
    """Re-verify a (possibly deserialized) result against its hypergraph.

    Returns named check booleans plus "all"; a certified result must
    replay clean.  Sample results need the p, eps, tau they were drawn
    with.
    """
    counts = result.counts_vector(g.num_edges)
    if result.kind == "randomized-covering":
        deg = _degree_from_counts(g, counts)
        checks = {
            "is_covering": linalg.psd_leq(np.eye(g.dim), deg),
            "average_matches": bool(np.allclose(deg, result.sampled_average, atol=1e-10)),
        }
    elif result.kind in ("classical-sample", "quantum-sample"):
        if p is None or eps is None or tau is None:
            raise ValueError("replaying a sample needs p, eps and tau")
        if result.kind == "classical-sample":
            sampler = classical_covering_sample
            size = g.num_vertices
        else:
            sampler = quantum_covering_sample
            size = g.dim
        formula = draw_bound(g.eta, size, eps, tau)
        # Infer whether the draw count was prescribed: the default path
        # always lands on base * scale.  (The first 64 spawned sub-seeds
        # coincide between the two schedules, so either way the replay
        # walks the original attempt sequence.)
        base, _ = _sample_plan(formula, _check_distribution(p, g.num_edges), None)
        scale = 2 ** ((result.attempts - 1) // RETRY_SEEDS)
        default_path = result.num_draws == base * scale
        fresh = sampler(
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


def _fractional_cover(stack: np.ndarray, deg: np.ndarray, tol: float) -> tuple[np.ndarray, float, int]:
    """Cutting-plane solution of min sum(v) over v >= 0 with sum_j v_j E_j >= identity.

    stack holds the edges E_j and deg their sum, which must have no
    common kernel.  The semi-infinite constraint set {<psi|.|psi> >= 1}
    is grown from the eigenbasis of deg by deficient eigenvectors, the
    finite LP is re-solved, and the loop stops once the weighted
    degree's least eigenvalue lam reaches 1 - tol.  Returns the LP
    weights v, lam and the number of LP rounds.  Every finite cut set
    relaxes the problem, so sum(v) never exceeds the optimum and v / lam
    is feasible: the optimum lies in [sum(v), sum(v) / lam].
    """
    dim = stack.shape[-1]
    _, u = linalg.eigh(deg)
    rows = [-np.real(np.einsum("i,kij,j->k", u[:, i].conj(), stack, u[:, i])) for i in range(dim)]
    for rounds in range(1, 2001):
        res = linprog(
            c=np.ones(stack.shape[0]),
            A_ub=np.array(rows),
            b_ub=-np.ones(len(rows)),
            bounds=(0, None),
            method="highs",
            # default feasibility tolerances let the LP sit up to 1e-7
            # below the cuts, which would stall lam short of 1 - tol
            options={
                "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
                "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
            },
        )
        if not res.success:
            raise RuntimeError(f"inner LP failed: {res.message}")
        v = res.x
        w, u = linalg.eigh(linalg.hermitize(np.tensordot(v, stack, axes=1)))
        lam = float(w[0])
        if lam >= 1.0 - tol:
            return v, lam, rounds
        # cut along every deficient eigenvector, not just the least one;
        # one cut per round can stall arbitrarily close to feasibility
        for i in range(dim):
            if w[i] < 1.0:
                rows.append(-np.real(np.einsum("i,kij,j->k", u[:, i].conj(), stack, u[:, i])))
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
    number.  It is read off the fractional-covering LP with a certified
    bracket: with LP weights v and lam the least eigenvalue of
    sum_j v_j E_j, the witness v / sum(v) attains value = lam / sum(v),
    and the optimum lies in [value, value_upper], value_upper =
    1 / sum(v), a bracket at most a factor 1/(1 - tol) wide.
    iterations counts LP rounds.  A family whose mixtures are all
    singular has infinite capacity, which is returned as math.inf (with
    a uniform witness) rather than raised.
    """
    if not tol >= LP_FEASIBILITY_TOL:
        raise DomainError(
            f"tol must be >= {LP_FEASIBILITY_TOL}, the LP's feasibility tolerance", "tol"
        )
    deg = degree(g)
    if _common_kernel(deg):
        m = g.num_edges
        return CapacityResult(math.inf, 0.0, np.full(m, 1.0 / m), 0, {"tol": tol, "singular": True})
    v, lam, rounds = _fractional_cover(np.stack(g.edges), deg, tol)
    total = float(v.sum())
    value = lam / total
    # lam can round a few ulps above 1; the upper end never drops below
    # what the witness attains
    upper = max(lam, 1.0) / total
    return CapacityResult(-math.log2(value), value, v / total, rounds,
                          {"tol": tol, "value_upper": upper})


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
    c~_n = c~_1^n: if sum_j v_j E_j >= I then sum v_j v_k E_j (x) E_k >= I,
    and a dual Y tensors to Y (x) Y as tr(Y (x) Y . E_j (x) E_k) = tr(Y E_j) tr(Y E_k).
    So one n = 1 LP (covering_capacity) gives c_tilde_n = value^-n and
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
