import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from opcover import cli, covering, linalg
from opcover.covering import (
    CapacityResult,
    CoveringResult,
    QuantumHypergraph,
    covering_capacity,
    covering_number_bruteforce,
    covering_randomized,
    covering_size_bounds,
    degree,
    generalized_covering_number,
    is_covering,
    product_hypergraph,
    quantum_covering_sample,
    random_hypergraph,
    replay_covering_result,
)
from opcover.linalg import LN2, BoundViolation
from opcover.rng import haar_unitary, make_rng, random_distribution, random_effect, seed_stream, spawn_seeds
from oracles import assert_same_sample, product_fractional_cover, vertex_covering_sample

E0 = np.diag([1.0, 0.0])
E1 = np.diag([0.0, 1.0])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def orthogonal_pair():
    return QuantumHypergraph(2, [E0, E1], 1.0)


def lp_capacity_diagonal(g):
    """Independent vertex-wise LP for diagonal families: max_P min_v sum P(E) E_vv."""
    cols = np.array([np.real(np.diag(e)) for e in g.edges])  # (num_edges, dim)
    m = g.num_edges
    # variables (P, t): minimize -t subject to t <= sum_E P(E) E_vv per vertex
    a_ub = np.hstack([-cols.T, np.ones((g.dim, 1))])
    res = linprog(
        c=np.concatenate([np.zeros(m), [-1.0]]),
        A_ub=a_ub,
        b_ub=np.zeros(g.dim),
        A_eq=np.concatenate([np.ones(m), [0.0]]).reshape(1, -1),
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.success
    return -res.fun


class TestHypergraphTypes:
    def test_quantum_validation(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuantumHypergraph(2, [np.diag([-0.2, 0.5])], 1.0)
        with pytest.raises(ValueError, match="eta cap"):
            QuantumHypergraph(2, [np.eye(2)], 0.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            QuantumHypergraph(3, [np.eye(2)], 1.0)
        with pytest.raises(ValueError, match="at least one edge"):
            QuantumHypergraph(2, [], 1.0)

    def test_quantum_validation_makes_one_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            calls.append(np.shape(m))
            return eigvalsh(m)

        def no_eigh(m):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        edges = [0.5 * E0, 0.25 * PLUS, np.diag([0.3, 0.1])]
        g = QuantumHypergraph(2, edges, 0.5)
        assert calls == [(3, 2, 2)] and g.eta == 0.5
        # eta=None: the tight cap from that same spectrum
        tight = QuantumHypergraph(2, edges, None)
        assert calls == [(3, 2, 2), (3, 2, 2)] and tight.eta == 0.5
        # the common-kernel test behind brute force, LP and capacity
        assert not covering._common_kernel(np.diag([0.5, 1e-3]))
        assert covering._common_kernel(E0)
        assert calls[2:] == [(2, 2), (2, 2)]

    def test_tight_eta_is_the_largest_edge_norm(self):
        rng = make_rng(83)
        edges = [0.7 * random_effect(rng, 3) for _ in range(4)]
        g = QuantumHypergraph(3, edges, None)
        assert g.eta == max(linalg.spectral_norm(e) for e in edges)
        with pytest.raises(ValueError, match="eta cap"):
            QuantumHypergraph(2, [1.5 * E0], None)
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuantumHypergraph(2, [np.diag([-0.2, 0.5])], None)
        with pytest.raises(ValueError, match="eta cap"):
            QuantumHypergraph(2, [np.diag([0.5, 0.5 + 1e-6])], 0.5)
        # within the relative PSD tolerance both orders still hold
        assert QuantumHypergraph(2, [np.diag([-1e-11, 0.5 + 1e-11])], 0.5).num_edges == 1

    def test_quantum_average_and_json(self):
        g = QuantumHypergraph(2, [E0, PLUS], 1.0)
        rho = g.edge_average([0.5, 0.5])
        assert np.allclose(rho, 0.5 * E0 + 0.5 * PLUS)
        g2 = QuantumHypergraph.from_json(g.to_json())
        assert all(np.allclose(a, b) for a, b in zip(g.edges, g2.edges))


class TestDegreeAndCovering:
    def test_degree_empty_and_pair(self):
        g = orthogonal_pair()
        assert np.allclose(degree(g, []), np.zeros((2, 2)))
        assert np.allclose(degree(g, [0, 1]), np.eye(2))
        # repeats count with multiplicity
        assert np.allclose(degree(g, [0, 0]), 2.0 * E0)

    def test_degree_is_entrywise_sum(self):
        rng = make_rng(11)
        edges = [random_effect(rng, 2) for _ in range(3)]
        g = QuantumHypergraph(2, edges, 1.0)
        assert np.allclose(degree(g), edges[0] + edges[1] + edges[2])

    def test_full_degree_is_the_edge_by_edge_sum_bit_for_bit(self):
        # the counts path adds 1.0 * E_j in index order, as a plain loop over the edges does
        rng = make_rng(12)
        for dim, m in ((1, 3), (2, 4), (3, 5)):
            g = QuantumHypergraph(dim, [random_effect(rng, dim) for _ in range(m)], 1.0)
            for graph in (g, product_hypergraph(g, 2)):
                out = np.zeros((graph.dim, graph.dim), dtype=complex)
                for e in graph.edges:
                    out = out + e
                assert np.array_equal(degree(graph), linalg.hermitize(out))

    def test_degree_refuses_an_index_past_the_edges(self):
        with pytest.raises(ValueError):
            degree(orthogonal_pair(), [2])

    def test_is_covering(self):
        g = orthogonal_pair()
        assert is_covering(g, [0, 1])
        assert not is_covering(g, [0])
        half = QuantumHypergraph(2, [0.5 * np.eye(2)], 0.5)
        assert not is_covering(half, [0])
        assert is_covering(half, [0, 0])


class TestCoveringRandomized:
    def test_orthogonal_pair(self):
        g = orthogonal_pair()
        res = covering_randomized(g, [0.5, 0.5], seed=7)
        # mixture has least eigenvalue 1/2, so the size guarantee is
        # 1 + 8 ln2 / 0.5 = 12.09...
        assert math.isclose(res.details["k_bound_min_eig"], 1.0 + 16.0 * LN2)
        assert res.num_draws <= 12
        assert res.certified and not res.beyond_bound
        assert set(res.edge_multiplicities) == {0, 1}
        assert is_covering(g, res.picked_edge_indices)
        assert replay_covering_result(g, res)["all"]

    def test_identity_point_mass(self):
        g = QuantumHypergraph(3, [np.eye(3)], 1.0)
        res = covering_randomized(g, [1.0], seed=0)
        assert res.num_draws == 1 and res.certified
        assert res.edge_multiplicities == {0: 1}

    def test_point_mass_needs_two_copies(self):
        g = QuantumHypergraph(2, [np.diag([1.0, 0.5]), E0], 1.0)
        res = covering_randomized(g, [1.0, 0.0], seed=0)
        assert res.num_draws == 2
        assert res.certified
        assert np.allclose(res.sampled_average, np.diag([2.0, 1.0]))

    def test_singular_mixture_rejected(self):
        g = QuantumHypergraph(2, [E0], 1.0)
        with pytest.raises(ValueError, match="singular"):
            covering_randomized(g, [1.0], seed=0)

    def test_exhaustion_is_sampling_exhausted(self, monkeypatch):
        monkeypatch.setattr(linalg, "psd_leq", lambda a, b: False)
        with pytest.raises(covering.SamplingExhausted, match="after 256 attempts"):
            covering_randomized(orthogonal_pair(), [0.5, 0.5], seed=7)

    def test_uniform_degree_bound_agrees(self):
        # with uniform P the two reported size bounds coincide
        g = random_hypergraph(23, dim=2, num_edges=4)
        delta = linalg.min_eigenvalue(degree(g))
        assert delta > 0
        p = np.full(4, 0.25)
        res = covering_randomized(g, p, seed=5)
        uniform_bound = 1.0 + 8.0 * 4 * LN2 * 1.0 / delta
        assert math.isclose(res.details["k_bound_uniform_degree"], uniform_bound)
        assert math.isclose(
            res.details["k_bound_min_eig"], uniform_bound, rel_tol=1e-9
        )
        assert res.num_draws <= uniform_bound
        assert is_covering(g, res.picked_edge_indices)

    def test_size_bounds_helper(self):
        g = orthogonal_pair()
        bounds = covering_size_bounds(g, [0.25, 0.75])
        assert math.isclose(bounds["uniform_degree"], 1.0 + 16.0 * LN2)
        assert math.isclose(bounds["min_eig"], 1.0 + 8.0 * LN2 / 0.25)


def diagonal_graph(weights, eta):
    """The diagonal QuantumHypergraph whose edge j has the vertex measure weights[j]."""
    return QuantumHypergraph(len(weights[0]), [np.diag(w) for w in weights], eta)


def assert_matches_vertex_sampler(res, g, p, eps, tau, seed, draws=None):
    """The quantum sampler on a diagonal graph reproduces the vertex-wise one, draw for draw.

    Returns the reference's figures.
    """
    weights = np.array([np.real(np.diag(e)) for e in g.edges])
    ref = vertex_covering_sample(weights, p, eps, tau, seed, g.eta, draws)
    assert res.edge_multiplicities == ref["edge_multiplicities"]
    assert (res.num_draws, res.attempts, res.certified) == (ref["num_draws"], ref["attempts"], ref["certified"])
    assert res.details["scale"] == ref["scale"]
    assert res.details["draw_bound"] == ref["draw_bound"]
    assert abs(res.details["excluded_mass"] - ref["excluded_mass"]) <= 1e-12
    assert np.abs(res.sampled_average - np.diag(ref["sampled_average"])).max() <= 1e-12
    # the split-off eigenspace is spanned by the excluded vertices
    cut = np.zeros(g.dim)
    cut[list(ref["excluded_vertices"])] = 1.0
    assert np.abs(res.pi0 - np.diag(cut)).max() <= 1e-12
    return ref


def e_uniform_instance():
    # 8 vertices, two disjoint 4-vertex edges, weight 1/e = 1/4 inside
    return diagonal_graph([[0.25] * 4 + [0.0] * 4, [0.0] * 4 + [0.25] * 4], 0.25)


class TestClassicalSample:
    """The classical covering lemma, as the sampler's diagonal case checked against the vertex-wise reference."""

    def test_single_edge_exact(self):
        g = diagonal_graph([[0.25] * 4], 0.25)
        res = quantum_covering_sample(g, [1.0], eps=0.5, tau=0.5, seed=3)
        ref = assert_matches_vertex_sampler(res, g, [1.0], 0.5, 0.5, 3)
        assert res.num_draws == 1
        assert ref["excluded_vertices"] == () and res.excluded_vertices == ()
        assert np.array_equal(res.sampled_average, g.edge_average([1.0]))
        assert res.certified
        assert res.details["l1_distance"] == 0.0

    def test_e_uniform_instance(self):
        g = e_uniform_instance()
        res = quantum_covering_sample(g, [0.5, 0.5], eps=0.2, tau=0.2, seed=17)
        ref = assert_matches_vertex_sampler(res, g, [0.5, 0.5], 0.2, 0.2, 17)
        assert res.certified
        # draw-count formula frozen: 1 + 2 * (2 ln2 * 4) / 0.008
        assert math.isclose(res.details["draw_bound"], 1387.2943611198905)
        assert res.num_draws == 1387
        # verify every postcondition directly over all 8 vertices
        q = np.real(np.diag(g.edge_average([0.5, 0.5])))
        counts = res.counts_vector(2)
        qbar = (counts[0] * np.diag(g.edges[0]) + counts[1] * np.diag(g.edges[1])).real / res.num_draws
        assert np.allclose(qbar, ref["sampled_average"])
        assert ref["excluded_vertices"] == ()  # Q(v) = 1/8 >= 0.2/8 everywhere
        assert np.all(qbar >= (1 - 0.2) * q - 1e-12)
        assert np.all(qbar <= (1 + 0.2) * q + 1e-12)
        # equal edge masses: the classical total-variation bound 2 eps + 2 tau
        assert np.abs(q - qbar).sum() <= 2 * 0.2 + 2 * 0.2
        assert abs(res.details["l1_distance"] - np.abs(q - qbar).sum()) <= 1e-12
        assert replay_covering_result(g, res, p=[0.5, 0.5], eps=0.2, tau=0.2)["all"]

    def test_seeded_random_instance(self):
        rng = make_rng(29)
        weights = np.zeros((10, 32))
        for row in weights:
            support = sorted(rng.choice(32, size=12, replace=False).tolist())
            row[support] = [float(rng.uniform(0.05, 0.5)) for _ in support]
        g = diagonal_graph(weights, 0.5)
        p = rng.dirichlet(np.ones(10))
        res = quantum_covering_sample(g, p, eps=0.3, tau=0.3, seed=31)
        assert_matches_vertex_sampler(res, g, p, 0.3, 0.3, 31)
        assert res.certified
        assert res.details["excluded_mass"] <= 0.3
        assert replay_covering_result(g, res, p=p, eps=0.3, tau=0.3)["all"]

    def test_budget_exhaustion_reports_side(self):
        g = e_uniform_instance()
        weights = [[0.25] * 4 + [0.0] * 4, [0.0] * 4 + [0.25] * 4]
        with pytest.raises(RuntimeError, match="budget exhausted"):
            vertex_covering_sample(weights, [0.5, 0.5], 1e-4, 0.2, 1, 0.25, draws=3)
        with pytest.raises(covering.SamplingExhausted,
                           match=r"budget exhausted after 64 attempts \(.* side failing\)"):
            quantum_covering_sample(g, [0.5, 0.5], eps=1e-4, tau=0.2, seed=1, draws=3)

    def test_unequal_masses_skip_l1_bound(self):
        g = diagonal_graph([[0.5, 0.0], [0.5, 0.5]], 0.5)
        res = quantum_covering_sample(g, [0.4, 0.6], eps=0.5, tau=0.5, seed=9)
        assert_matches_vertex_sampler(res, g, [0.4, 0.6], 0.5, 0.5, 9)
        assert res.details["l1_bound"] is None

    def test_equal_masses_meet_the_total_variation_bound(self):
        # every edge carries one mass c <= 1, so sum_v |Q(v) - Qbar(v)| <= 2 eps + 2 tau
        for seed in range(12):
            rng = make_rng(900 + seed)
            dim, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            weights = rng.uniform(0.0, 1.0, size=(m, dim)) * (rng.uniform(size=(m, dim)) < 0.7)
            weights[:, 0] += 0.1  # no empty edge
            weights *= rng.uniform(0.3, 1.0) / weights.sum(axis=1, keepdims=True)
            g = diagonal_graph(weights, float(weights.max()))
            p = random_distribution(rng, m)
            eps, tau = float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.1, 0.4))
            res = quantum_covering_sample(g, p, eps, tau, seed=seed)
            ref = assert_matches_vertex_sampler(res, g, p, eps, tau, seed)
            assert res.details["equal_edge_trace"]
            assert ref["l1_distance"] <= 2 * eps + 2 * tau + 1e-12
            assert abs(res.details["l1_distance"] - ref["l1_distance"]) <= 1e-12


class TestQuantumSample:
    def test_single_edge_exact(self):
        g = QuantumHypergraph(2, [PLUS], 1.0)
        res = quantum_covering_sample(g, [1.0], eps=0.3, tau=0.3, seed=2)
        assert res.num_draws == 1
        assert np.allclose(res.sampled_average, PLUS)
        assert res.certified
        assert res.details["l1_distance"] <= 1e-12

    def test_qubit_pair_frozen(self):
        g = QuantumHypergraph(2, [0.5 * E0, 0.5 * PLUS], 0.5)
        res = quantum_covering_sample(g, [0.5, 0.5], eps=0.1, tau=0.1, seed=19)
        assert res.certified
        # formula frozen: 1 + 0.5 * 2 * (2 ln2 * log2 4) / (0.01 * 0.1)
        assert math.isclose(res.details["draw_bound"], 2773.588722239781)
        assert res.num_draws == 2773
        # both mixture eigenvalues clear tau/dim = 0.05, nothing is cut
        assert np.allclose(res.pi0, np.zeros((2, 2)))
        assert np.allclose(res.pi1, np.eye(2))
        assert res.details["sandwich_lower_slack"] >= -1e-9
        assert res.details["sandwich_upper_slack"] >= -1e-9
        # equal traces 0.5 arm the trace-norm consequence
        bound = 0.2 + math.sqrt(8 * 0.2)
        assert res.details["l1_bound"] == pytest.approx(bound)
        assert res.details["l1_distance"] <= bound
        assert replay_covering_result(g, res, p=[0.5, 0.5], eps=0.1, tau=0.1)["all"]

    def test_slacks_are_relative_to_the_kept_mixture(self):
        # both eigenvalues kept: the spectrum of rho^-1/2 rhobar rho^-1/2
        g = QuantumHypergraph(2, [0.5 * E0, 0.5 * PLUS], 0.5)
        res = quantum_covering_sample(g, [0.5, 0.5], eps=0.1, tau=0.1, seed=19)
        w, u = np.linalg.eigh(g.edge_average([0.5, 0.5]))
        white = u / np.sqrt(w)
        x = np.linalg.eigvalsh(white.conj().T @ res.sampled_average @ white)
        assert res.details["sandwich_lower_slack"] == pytest.approx(x[0] - 0.9, abs=1e-12)
        assert res.details["sandwich_upper_slack"] == pytest.approx(1.1 - x[-1], abs=1e-12)

    def test_nothing_kept_holds_vacuously(self):
        # every mixture eigenvalue lies under tau / dim = 0.25
        g = QuantumHypergraph(2, [0.05 * np.eye(2), np.diag([0.1, 0.02])], 1.0)
        res = quantum_covering_sample(g, [0.5, 0.5], eps=0.3, tau=0.5, seed=1)
        assert res.certified and res.attempts == 1
        assert res.details["sandwich_lower_slack"] == res.details["sandwich_upper_slack"] == math.inf
        assert np.allclose(res.pi0, np.eye(2)) and np.allclose(res.pi1, np.zeros((2, 2)))

    def test_excluded_mass_within_tau(self):
        rng = make_rng(41)
        g = QuantumHypergraph(3, [random_effect(rng, 3) for _ in range(4)], 1.0)
        res = quantum_covering_sample(g, np.full(4, 0.25), eps=0.4, tau=0.15, seed=43)
        rho = g.edge_average(np.full(4, 0.25))
        assert float(np.real(np.trace(rho @ res.pi0))) <= 0.15 + 1e-12
        assert linalg.is_projector(res.pi0) and linalg.is_projector(res.pi1)

    def test_prescribed_draws(self):
        g = QuantumHypergraph(2, [0.5 * E0, 0.5 * PLUS], 0.5)
        res = quantum_covering_sample(g, [0.5, 0.5], eps=0.1, tau=0.1, seed=19, draws=5000)
        assert res.num_draws == 5000
        assert res.beyond_bound  # 5000 exceeds the formula value
        assert res.certified  # the caller owns a prescribed draw count
        assert replay_covering_result(g, res, p=[0.5, 0.5], eps=0.1, tau=0.1)["all"]

    def test_zero_mixture_rejected(self):
        g = QuantumHypergraph(2, [np.zeros((2, 2))], 1.0)
        with pytest.raises(ValueError, match="zero"):
            quantum_covering_sample(g, [1.0], eps=0.1, tau=0.1, seed=0)

    def test_diagonal_case_matches_classical(self):
        # same seed protocol: a diagonal family reproduces the vertex-wise
        # classical sampler on its diagonals, draw for draw
        diags = [
            [0.5, 0.3, 0.0001, 0.2],
            [0.1, 0.4, 0.0001, 0.3],
            [0.3, 0.1, 0.0001, 0.5],
        ]
        g = diagonal_graph(diags, 0.5)
        p = [0.3, 0.3, 0.4]
        qres = quantum_covering_sample(g, p, eps=0.25, tau=0.3, seed=57)
        ref = assert_matches_vertex_sampler(qres, g, p, 0.25, 0.3, 57)
        # vertex 2 sits below tau/dim = 0.075 and is cut on both sides
        assert ref["excluded_vertices"] == (2,)
        assert np.allclose(np.real(np.diag(qres.pi0)), [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_family_shares_one_draw_count(self):
        # a one-edge graph is not sampled: all L draws land on its edge
        one = QuantumHypergraph(2, [0.5 * PLUS], None)
        g = e_uniform_instance()
        L, stages, formulas, drawn = covering.sample_family([g, one], [[0.5, 0.5], [1.0]], 0.3, 0.3, 4)
        assert stages == 1
        assert formulas == [covering.draw_bound(h.eta, h.dim, 0.3, 0.3) for h in (g, one)]
        assert L == max(math.floor(f) for f in formulas)
        assert drawn[1][0].tolist() == [L] and drawn[1][1] == 1
        seed = next(seed_stream(4))
        counts, ln, attempts, *_ = covering._sample_in_span(g, [0.5, 0.5], 0.3, 0.3, seed, L)
        assert drawn[0][0].tolist() == counts.tolist() and drawn[0][1] == attempts and ln == L
        with pytest.raises(ValueError, match="one edge distribution per graph"):
            covering.sample_family([g, one], [[0.5, 0.5]], 0.3, 0.3, 4)


def orbit(seed, dim, r, members):
    """A factor M (dim x r, orthonormal), weights in [0.2, 1], member permutations and dense edges."""
    rng = make_rng(seed)
    factor = haar_unitary(rng, dim)[:, :r]
    weights = rng.uniform(0.2, 1.0, size=r)
    perms = [rng.permutation(dim) for _ in range(members)]
    edges = [((factor * weights) @ factor.conj().T)[np.ix_(p, p)] for p in perms]
    return factor, weights, perms, edges


class TestSpanCompression:
    def test_factored_graph_matches_dense_graph(self):
        factor, weights, perms, edges = orbit(81, 8, 2, 3)
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        assert g.basis is not None and g.span_dim == 6
        dense = QuantumHypergraph(8, edges, None)
        assert dense.basis is None and dense.span_dim == 8
        assert abs(g.eta - dense.eta) <= 1e-12
        assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(g.edges, dense.edges))
        mix = [0.25, 0.25, 0.5]
        assert np.abs(g.edge_average(mix) - dense.edge_average(mix)).max() <= 1e-12
        p = random_distribution(make_rng(82), 3)
        for draws in (None, 3000):
            a = quantum_covering_sample(g, p, 0.3, 0.3, seed=83, draws=draws)
            b = quantum_covering_sample(dense, p, 0.3, 0.3, seed=83, draws=draws)
            assert a.certified
            assert_same_sample(a, b)
            # relative slacks, read off the kept eigenspace: alike for the
            # compressed and the dense graph, and nonnegative when certified
            for side in ("sandwich_lower_slack", "sandwich_upper_slack"):
                assert abs(a.details[side] - b.details[side]) <= 1e-12
                assert a.details[side] >= -1e-9
            assert replay_covering_result(g, a, p=p, eps=0.3, tau=0.3)["all"]

    def test_sampler_makes_one_mixture_eigh_and_one_stacked_check(self, monkeypatch):
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def spy(fn, name):
            def wrapped(m):
                calls.append((name, np.shape(m)))
                return fn(m)
            return wrapped

        g = random_hypergraph(85, 3, 4)
        r = int((np.linalg.eigvalsh(g.edge_average([0.25] * 4)) >= 0.3 / 3).sum())
        monkeypatch.setattr(np.linalg, "eigh", spy(eigh, "eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy(eigvalsh, "eigvalsh"))
        res = quantum_covering_sample(g, [0.25] * 4, 0.3, 0.3, seed=86)
        assert res.attempts == 1
        # eigh of rho; both sandwich sides from one whitened r x r spectrum;
        # the trace norm of rho - rhobar
        assert calls == [("eigh", (3, 3)), ("eigvalsh", (r, r)), ("eigvalsh", (3, 3))]


class TestOrbitGraph:
    @pytest.mark.parametrize("r", [2, 6])
    def test_full_rank_edges_are_exact_relabelings(self, monkeypatch, r):
        # an orthonormal factor takes its spectrum from its weights; the same
        # edges from a scaled factor take one eigensolve: of the r x r Gram
        # matrix when r < dim, else of C
        factor, weights, perms, edges = orbit(88, 6, r, 3)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)) or eigvalsh(m))
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        assert calls == []
        scaled = QuantumHypergraph.from_orbit(2.0 * factor, weights / 4.0, perms)
        monkeypatch.undo()
        assert g.basis is None and calls == [(r, r)]
        assert abs(g.eta - scaled.eta) <= 1e-12
        c = linalg.hermitize((factor * weights) @ factor.conj().T)
        assert all(np.array_equal(cj, c[np.ix_(p, p)]) for cj, p in zip(g.compressed, perms))
        assert all(np.array_equal(e, cj) for e, cj in zip(g.edges, g.compressed))
        dense = QuantumHypergraph(6, edges, None)
        assert abs(g.eta - dense.eta) <= 1e-12
        assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(g.edges, dense.edges))

    def test_narrow_orbits_take_the_span_route(self, monkeypatch):
        factor, weights, perms, edges = orbit(89, 8, 2, 3)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)) or eigvalsh(m))
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        monkeypatch.undo()
        # the factor is orthonormal: its spectrum is its weights, no eigensolve
        assert g.basis is not None and g.span_dim == 6 and calls == []
        assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(g.edges, edges))

    @pytest.mark.parametrize("r", [2, 6])
    def test_stacks_formed_on_first_read(self, monkeypatch, r):
        # the edge count, span width and traces come from the factor; the
        # span QR (narrow, r = 2) or the gather (r = 6) waits for a read
        factor, weights, perms, edges = orbit(93, 8, r, 3)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(np.shape(a)) or qr(a))
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        traces = g.edge_traces()
        assert (g.num_edges, g.span_dim) == (3, 6 if r == 2 else 8)
        assert "_span" not in vars(g) and not calls
        assert np.abs(traces - [np.trace(e).real for e in edges]).max() <= 1e-12
        assert np.abs(traces - [np.trace(c).real for c in g.compressed]).max() <= 1e-12
        assert g.compressed.shape == (3, g.span_dim, g.span_dim)
        assert calls == ([(8, 6)] if r == 2 else [])

    def test_orbits_validated(self):
        factor, weights, perms, _ = orbit(90, 4, 1, 2)
        with pytest.raises(ValueError, match="permutation"):
            QuantumHypergraph.from_orbit(factor, weights, [perms[0], [0, 0, 1, 2]])
        with pytest.raises(ValueError, match="permutation"):
            QuantumHypergraph.from_orbit(factor, weights, [perms[0][:3]])
        with pytest.raises(ValueError, match="at least one edge"):
            QuantumHypergraph.from_orbit(factor, weights, [])
        with pytest.raises(ValueError, match="factor dimension"):
            QuantumHypergraph.from_orbit(factor, np.ones(2), perms)
        with pytest.raises(ValueError, match="nonnegative"):
            QuantumHypergraph.from_orbit(np.eye(4), np.array([1.0, -0.5, 1.0, 1.0]), perms)
        # a factor that breaks the eta cap is refused on the Gram spectrum
        with pytest.raises(ValueError, match="exceeds the eta cap"):
            QuantumHypergraph.from_orbit(2.0 * np.eye(4)[:, :2], np.ones(2), perms[:1])


class TestNarrowOrbitSample:
    def test_lifted_result_unchanged(self):
        # sha256 of the payload, taken when the lifts were still formed on
        # first read; the narrow route is the one where a lift is not the identity
        factor, weights, perms, _ = orbit(91, 8, 2, 3)
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        assert g.basis is not None
        res = quantum_covering_sample(g, [0.3, 0.3, 0.4], 0.3, 0.3, seed=92)
        payload = res.to_json()
        assert (hashlib.sha256(cli.canonical_json(payload).encode()).hexdigest()
                == "6efebef91b1800c7c445047a7a6fa6c8f25d7d682ce148023f093b3642901e54")
        assert res.pi0.shape == res.pi1.shape == res.sampled_average.shape == (8, 8)
        assert np.array_equal(res.pi0, linalg.hermitize(np.eye(8) - res.pi1))
        assert CoveringResult.from_json(payload).to_json() == payload


class TestProductHypergraph:
    def test_n1_is_same_object(self):
        g = orthogonal_pair()
        assert product_hypergraph(g, 1) is g

    def test_orthogonal_pair_squared(self):
        g2 = product_hypergraph(orthogonal_pair(), 2)
        assert g2.dim == 4 and g2.num_edges == 4
        # the four edges are exactly the four basis projectors
        got = sorted(int(np.flatnonzero(np.real(np.diag(e)))[0]) for e in g2.edges)
        assert got == [0, 1, 2, 3]

    def test_random_edges_match_tensor(self):
        g = random_hypergraph(3, dim=2, num_edges=2)
        g2 = product_hypergraph(g, 2)
        expected = [np.kron(a, b) for a in g.edges for b in g.edges]
        assert all(np.allclose(x, y) for x, y in zip(g2.edges, expected))
        assert g2.eta == g.eta**2

    def test_overflow(self):
        g = QuantumHypergraph(8, [np.eye(8)], 1.0)
        with pytest.raises(ValueError, match="overflow"):
            product_hypergraph(g, 5)
        start = time.perf_counter()  # a huge n costs no huge integer power
        with pytest.raises(ValueError, match="overflow"):
            product_hypergraph(QuantumHypergraph(3, [np.eye(3)], 1.0), 10**7)
        assert time.perf_counter() - start < 0.1


class TestCoveringNumbers:
    def test_identity_edge(self):
        g = QuantumHypergraph(2, [np.eye(2)], 1.0)
        assert covering_number_bruteforce(g, 1) == 1
        assert covering_number_bruteforce(g, 2) == 1

    def test_orthogonal_pair_exact(self):
        g = orthogonal_pair()
        assert covering_number_bruteforce(g, 1) == 2
        assert covering_number_bruteforce(g, 2) == 4

    def test_half_identity_multiset(self):
        g = QuantumHypergraph(2, [0.5 * np.eye(2)], 0.5)
        assert covering_number_bruteforce(g, 1) == 2

    def test_deficient_degree_signaled(self):
        g = QuantumHypergraph(2, [E0], 1.0)
        assert covering_number_bruteforce(g, 1) == math.inf

    def test_submultiplicative(self):
        g = random_hypergraph(101, dim=2, num_edges=2)
        c1 = covering_number_bruteforce(g, 1)
        c2 = covering_number_bruteforce(g, 2)
        assert c2 <= c1 * c1

    def test_generalized_identity(self):
        g = QuantumHypergraph(2, [np.eye(2)], 1.0)
        assert generalized_covering_number(g, 1) == pytest.approx(1.0, abs=1e-6)
        assert generalized_covering_number(g, 2) == pytest.approx(1.0, abs=1e-6)

    def test_generalized_orthogonal_pair(self):
        g = orthogonal_pair()
        assert generalized_covering_number(g, 1) == pytest.approx(2.0, abs=1e-6)
        assert generalized_covering_number(g, 2) == pytest.approx(4.0, abs=1e-6)

    def test_generalized_grid_cross_check(self):
        # orthogonal pair: scan symmetric weights (w, w); feasibility is
        # w >= 1, so the grid minimum of the total is 2
        g = orthogonal_pair()
        best = math.inf
        for w in np.linspace(0.5, 2.0, 301):
            if linalg.psd_leq(np.eye(2), w * E0 + w * E1):
                best = min(best, 2 * w)
        assert best == pytest.approx(2.0, abs=1e-2)
        assert generalized_covering_number(g, 1) <= best + 1e-6

    def test_generalized_below_bruteforce(self):
        for seed in (201, 202, 203):
            g = random_hypergraph(seed, dim=2, num_edges=2)
            for n in (1, 2):
                c = covering_number_bruteforce(g, n)
                ct = generalized_covering_number(g, n, tol=1e-9)
                assert ct <= c + 1e-6

    def test_generalized_infeasible(self):
        g = QuantumHypergraph(2, [E0], 1.0)
        with pytest.raises(ValueError, match="kernel"):
            generalized_covering_number(g, 1)

    def test_generalized_multiplicative_against_product_lp(self):
        # c~_n = c~_1^n: one n = 1 LP against the oracle's m^n-edge
        # product LP, both in their (1 - tol)^-n brackets
        s = spawn_seeds(5, 5)
        for seed, dim, m, top in ((s[0], 2, 2, 3), (s[0], 2, 3, 2), (s[1], 2, 3, 3),
                                  (s[0], 3, 4, 2)):
            g = random_hypergraph(seed, dim=dim, num_edges=m)
            for n in range(1, top + 1):
                want = product_fractional_cover(g.edges, n, tol=1e-9)
                got = generalized_covering_number(g, n, tol=1e-9)
                assert got == pytest.approx(want, rel=n * 1e-9)

    def test_bruteforce_fails_before_building_product(self, monkeypatch):
        def no_product(*args):
            raise AssertionError("product built")

        monkeypatch.setattr(covering, "product_hypergraph", no_product)
        for n in (5, 8, 10**8):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="too large"):
                covering_number_bruteforce(orthogonal_pair(), n)
            assert time.perf_counter() - start < 0.1


class TestCoveringCapacity:
    def test_identity(self):
        g = QuantumHypergraph(2, [np.eye(2)], 1.0)
        cap = covering_capacity(g)
        assert cap.bits == pytest.approx(0.0, abs=1e-9)
        assert cap.value == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pair(self):
        cap = covering_capacity(orthogonal_pair())
        assert cap.value == pytest.approx(0.5, abs=1e-9)
        assert cap.bits == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(cap.witness, [0.5, 0.5], atol=1e-6)

    def test_point_optimum(self):
        # mixing in the first edge only hurts: optimum sits at P = (0, 1)
        g = QuantumHypergraph(2, [E0, 0.5 * np.eye(2)], 1.0)
        cap = covering_capacity(g)
        assert cap.value == pytest.approx(0.5, abs=1e-9)
        assert cap.bits == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(cap.witness, [0.0, 1.0], atol=1e-6)
        # 1-D grid oracle over the mixing weight
        grid = max(
            linalg.min_eigenvalue((1 - t) * g.edges[0] + t * g.edges[1])
            for t in np.linspace(0, 1, 2001)
        )
        assert cap.value == pytest.approx(grid, abs=1e-6)

    def test_singular_family(self):
        g = QuantumHypergraph(2, [np.zeros((2, 2))], 1.0)
        cap = covering_capacity(g)
        assert math.isinf(cap.bits)
        g2 = QuantumHypergraph(2, [E0, 0.5 * E0], 1.0)
        assert math.isinf(covering_capacity(g2).bits)

    def test_singular_family_reports_uniform_witness(self):
        cap = covering_capacity(QuantumHypergraph(2, [E0, 0.5 * E0], 1.0), tol=1e-7)
        assert np.array_equal(cap.witness, [0.5, 0.5])
        assert cap.iterations == 0
        assert cap.details == {"tol": 1e-7, "singular": True}

    def test_diagonal_matches_lp(self):
        rng = make_rng(71)
        for _ in range(3):
            diags = [np.diag(rng.uniform(0.05, 1.0, size=3)) for _ in range(3)]
            g = QuantumHypergraph(3, diags, 1.0)
            cap = covering_capacity(g)
            assert cap.value == pytest.approx(lp_capacity_diagonal(g), abs=1e-7)

    def test_witness_attains_bracket(self):
        graphs = [orthogonal_pair(), random_hypergraph(spawn_seeds(5, 5)[0], dim=3, num_edges=4)]
        graphs += [random_hypergraph(seed, dim=2, num_edges=2) for seed in (301, 302, 303)]
        for g in graphs:
            cap = covering_capacity(g, tol=1e-10)
            attained = linalg.min_eigenvalue(np.tensordot(cap.witness, np.stack(g.edges), axes=1))
            assert attained == pytest.approx(cap.value, abs=1e-12)
            assert cap.value <= cap.details["value_upper"] <= cap.value / (1.0 - 1e-10)

    def test_every_lp_round_calls_the_module_linprog(self, monkeypatch):
        # profilers count LP rounds by wrapping covering.linprog, so each
        # cutting-plane round must look that attribute up and call it once
        calls = []
        solve = covering.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(covering, "linprog", counting)
        cap = covering_capacity(random_hypergraph(spawn_seeds(5, 5)[0], dim=3, num_edges=4))
        assert cap.iterations > 1
        assert len(calls) == cap.iterations

    def test_json(self):
        cap = covering_capacity(orthogonal_pair())
        obj = cap.to_json()
        assert obj["bits"] == pytest.approx(1.0, abs=1e-6)
        assert len(obj["witness"]) == 2


    def test_tol_below_lp_feasibility_rejected_at_once(self):
        g = random_hypergraph(spawn_seeds(5, 5)[0], dim=3, num_edges=4)
        for solve in (lambda: covering_capacity(g, tol=1e-12),
                      lambda: generalized_covering_number(g, 1, tol=1e-12)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="tol must be >="):
                solve()
            assert time.perf_counter() - start < 1.0


def lp_instance(seed, dim, m, kind):
    """Seeded effect family: random edges, every other edge rank one, or a near-duplicate pair."""
    rng = make_rng(seed)
    edges = [random_effect(rng, dim) for _ in range(m)]
    if kind == "rank-1":
        for j in range(0, m, 2):
            w, u = np.linalg.eigh(edges[j])
            edges[j] = w[-1] * np.outer(u[:, -1], u[:, -1].conj())
    elif kind == "near-duplicate":
        edges[-1] = (1.0 - 1e-7) * edges[0] + 1e-7 * edges[-1]
    return QuantumHypergraph(dim, edges, 1.0)


class TestPackingSimplex:
    """The warm-started simplex against the HiGHS cutting-plane oracle."""

    TOL = 1e-9

    def assert_agrees_with_oracle(self, g):
        cap = covering_capacity(g, self.TOL)
        oracle = 1.0 / product_fractional_cover(g.edges, 1, tol=self.TOL)
        upper = cap.details["value_upper"]
        # the oracle's value is only within tol of the optimum, which the
        # bracket holds up to rounding
        assert cap.value * (1.0 - self.TOL) <= oracle <= upper * (1.0 + covering.BRACKET_ROUNDING)
        assert cap.value == pytest.approx(oracle, rel=self.TOL)
        assert cap.value <= upper <= cap.value / (1.0 - self.TOL)
        return cap

    def test_agrees_with_highs_on_seeded_instances(self):
        seeds = spawn_seeds(1977, 210)
        for i, seed in enumerate(seeds):
            rng = make_rng(seed)
            dim, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            kind = ("random", "rank-1", "near-duplicate")[i % 3]
            self.assert_agrees_with_oracle(lp_instance(seed, dim, m, kind))

    @pytest.mark.parametrize("feasibility_tol", [covering.LP_FEASIBILITY_TOL, 1e-13])
    def test_basic_columns_never_reenter(self, monkeypatch, feasibility_tol):
        # a basic column's reduced cost rounds to about 3e-12, not 0; with
        # an entering threshold below that, a simplex that let it re-enter
        # cycled on this instance
        monkeypatch.setattr(covering, "LP_FEASIBILITY_TOL", feasibility_tol)
        g = random_hypergraph(spawn_seeds(31, 60)[9], dim=2, num_edges=4)
        self.assert_agrees_with_oracle(g)

    def test_warm_start_equals_one_cold_solve(self, monkeypatch):
        solve = covering.linprog
        seen = []
        monkeypatch.setattr(covering, "linprog", lambda lp, cuts: seen.append(lp) or solve(lp, cuts))
        for seed, dim, m in ((spawn_seeds(5, 5)[0], 3, 4), (spawn_seeds(5, 5)[1], 4, 8),
                             (spawn_seeds(31, 60)[9], 2, 4)):
            seen.clear()
            g = random_hypergraph(seed, dim=dim, num_edges=m)
            cap = covering_capacity(g, self.TOL)
            warm = seen[-1]
            assert len(seen) == cap.iterations > 1 and all(lp is warm for lp in seen)
            cold = covering.PackingLP(np.stack(g.edges))
            solve(cold, warm.cuts)
            assert cold.y.sum() == pytest.approx(warm.y.sum(), rel=1e-12)
            assert cold.v.sum() == pytest.approx(warm.v.sum(), rel=1e-12)

    def test_corrupted_dual_witness_raises(self, monkeypatch):
        solve = covering.linprog

        def corrupting(lp, cuts):
            solve(lp, cuts)
            # all weight, negated, on the cut that some edge misses most:
            # Y is no longer positive semidefinite
            m = lp.stack.shape[0]
            lp.y = -np.eye(lp.y.size)[np.argmin(lp.columns[:, m:].min(axis=0))]
            return lp

        monkeypatch.setattr(covering, "linprog", corrupting)
        for g in (orthogonal_pair(), QuantumHypergraph(2, [E0, 0.5 * np.eye(2)], 1.0)):
            with pytest.raises(BoundViolation, match="covering capacity bracket"):
                covering_capacity(g)

    def test_sixty_edges_in_dimension_six(self):
        g = random_hypergraph(spawn_seeds(7, 3)[0], dim=6, num_edges=60)
        start = time.perf_counter()
        covering_capacity(g, self.TOL)
        assert time.perf_counter() - start < 10.0  # about 0.1 s; HiGHS rounds took 1.7 s
        cap = self.assert_agrees_with_oracle(g)
        assert cap.iterations > 50


class TestProductRelations:
    def test_chain_on_seeded_instances(self):
        # 2^{Cn} <= fractional <= exact, and the randomized size bound
        # caps the exact number, at n = 1 and 2
        for seed in (301, 302, 303):
            g = random_hypergraph(seed, dim=2, num_edges=2)
            cap = covering_capacity(g, tol=1e-10)
            for n in (1, 2):
                ct = generalized_covering_number(g, n, tol=1e-9)
                c = covering_number_bruteforce(g, n)
                assert 2.0 ** (cap.bits * n) <= ct + 1e-6
                assert ct <= c + 1e-6
                upper = 1.0 + 8.0 * LN2 * math.log2(g.dim**n) * 2.0 ** (cap.bits * n)
                assert c <= upper + 1e-6

    def test_chain_with_four_edges(self):
        # four or more edges, where an uncertified ascent undershot the
        # optimum and broke 2^{2C} <= c_tilde_2
        g = random_hypergraph(spawn_seeds(5, 5)[0], dim=3, num_edges=4)
        cap = covering_capacity(g, tol=1e-10)
        for n in (1, 2):
            ct = generalized_covering_number(g, n, tol=1e-9)
            assert 2.0 ** (cap.bits * n) <= ct + 1e-6

    def test_table_rows(self):
        from opcover.covering import product_covering_table

        rows = product_covering_table(orthogonal_pair(), [1, 2])
        assert [r["n"] for r in rows] == [1, 2]
        assert rows[0]["c_n"] == 2 and rows[1]["c_n"] == 4
        assert rows[0]["c_tilde_n"] == pytest.approx(2.0, abs=1e-6)
        assert rows[1]["pow2_Cn"] == pytest.approx(4.0, rel=1e-6)

    def test_table_solves_one_lp_past_the_old_caps(self, monkeypatch):
        calls = []
        solve = covering._fractional_cover
        monkeypatch.setattr(covering, "_fractional_cover",
                            lambda *a: calls.append(1) or solve(*a))
        start = time.perf_counter()
        rows = covering.product_covering_table(orthogonal_pair(), range(1, 31))
        assert time.perf_counter() - start < 1.0
        assert len(calls) == 1
        for r in rows:
            assert r["c_tilde_n"] == pytest.approx(2.0 ** r["n"], rel=1e-6)
            assert r["pow2_Cn"] == pytest.approx(2.0 ** r["n"], rel=1e-6)
        # n = 4 exceeds the multiset budget, n >= 5 the 20-edge cap
        assert [r["c_n"] for r in rows[:3]] == [2, 4, 8]
        assert all(r["c_n"] is None for r in rows[3:])

    def test_table_past_float_range_is_inf(self):
        (row,) = covering.product_covering_table(orthogonal_pair(), [2000])
        assert row == {"n": 2000, "c_n": None, "c_tilde_n": math.inf, "pow2_Cn": math.inf}
        assert generalized_covering_number(orthogonal_pair(), 2000) == math.inf

    def test_table_common_kernel(self):
        rows = covering.product_covering_table(QuantumHypergraph(2, [E0], 1.0), [1, 3])
        assert [r["c_n"] for r in rows] == [math.inf, math.inf]
        assert [r["c_tilde_n"] for r in rows] == [None, None]
        assert [r["pow2_Cn"] for r in rows] == [math.inf, math.inf]

    def test_table_refuses_a_search_past_the_budget_at_once(self):
        # the LP floor k >= 36 alone is C(43, 36) = 32 M multisets, past
        # the budget; the trace floor walked all 5 M first (59 s)
        g = random_hypergraph(spawn_seeds(960, 20)[1], 2, 2)
        start = time.perf_counter()
        (row,) = covering.product_covering_table(g, [3])
        assert time.perf_counter() - start < 1.0
        assert row["c_n"] is None

    def test_lp_start_never_passes_the_covering_number(self):
        # against a search from k = 1 over the product's multisets
        # (c_1, c_2): (5, 21), (3, 5), (2, 4) and (3, 7)
        for seed in (301, 302, 305, 306):
            g = random_hypergraph(seed, dim=2, num_edges=2)
            for n in (1, 2):
                gn = product_hypergraph(g, n)
                stack = np.stack(gn.edges)
                want = next(
                    k for k in itertools.count(1)
                    if linalg.psd_leq(np.eye(gn.dim), stack[np.array(list(
                        itertools.combinations_with_replacement(range(gn.num_edges), k)
                    ))].sum(axis=1)).any()
                )
                assert covering_number_bruteforce(g, n) == want

    def test_bruteforce_batches_multisets_by_counts(self, monkeypatch):
        # with 256-entry chunks and D = 4, gathering the k > 16 edges of a
        # multiset would fill a chunk alone; counts @ stack keeps 16 per check
        monkeypatch.setattr(covering, "BRUTEFORCE_CHUNK_ENTRIES", 1 << 8)
        calls = []
        psd_leq = linalg.psd_leq

        def counted(a, b):
            calls.append(np.shape(b)[0])
            return psd_leq(a, b)

        monkeypatch.setattr(linalg, "psd_leq", counted)
        c2 = covering_number_bruteforce(random_hypergraph(311, dim=2, num_edges=2), 2)
        assert c2 == 53 and c2 * 4**2 > 1 << 8
        assert sum(calls) > 1000  # multisets checked
        assert calls[:-1] == [16] * (len(calls) - 1)


class TestResultSerialization:
    def test_round_trip_randomized(self):
        g = orthogonal_pair()
        res = covering_randomized(g, [0.5, 0.5], seed=7)
        back = CoveringResult.from_json(res.to_json())
        assert back.edge_multiplicities == res.edge_multiplicities
        assert back.certified == res.certified
        assert np.allclose(back.sampled_average, res.sampled_average)
        assert replay_covering_result(g, back)["all"]

    def test_round_trip_quantum(self):
        g = QuantumHypergraph(2, [0.5 * E0, 0.5 * PLUS], 0.5)
        res = quantum_covering_sample(g, [0.5, 0.5], eps=0.1, tau=0.1, seed=19)
        back = CoveringResult.from_json(res.to_json())
        assert np.allclose(back.pi1, res.pi1)
        assert back.details["l1_distance"] == res.details["l1_distance"]
        assert replay_covering_result(g, back, p=[0.5, 0.5], eps=0.1, tau=0.1)["all"]

    def test_attempt_seeds_spawned_lazily_match_the_spawned_list(self):
        stages = covering.ESCALATION_STAGES
        want = spawn_seeds(19, covering.RETRY_SEEDS * stages)
        got = list(covering._attempt_schedule(19, stages))
        assert len(got) == len(want) == 256
        for i in (0, 63, 64, 255):
            assert got[i] == (i + 1, 2 ** (i // covering.RETRY_SEEDS), want[i])

    def test_tampered_result_flagged(self):
        g = orthogonal_pair()
        res = covering_randomized(g, [0.5, 0.5], seed=7)
        obj = res.to_json()
        key = next(iter(obj["edge_multiplicities"]))
        obj["edge_multiplicities"][key] += 1
        obj["num_draws"] += 1
        tampered = CoveringResult.from_json(obj)
        assert not replay_covering_result(g, tampered)["average_matches"]

    def test_multiplicity_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to num_draws"):
            CoveringResult(
                kind="randomized-covering",
                edge_multiplicities={0: 2},
                num_draws=3,
                sampled_average=np.eye(2),
                certified=False,
                seed=0,
            )
