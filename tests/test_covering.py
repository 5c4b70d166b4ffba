import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from opcover import covering, linalg
from opcover.covering import (
    CapacityResult,
    ClassicalHypergraph,
    CoveringResult,
    QuantumHypergraph,
    classical_covering_sample,
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
from opcover.rng import haar_unitary, make_rng, random_distribution, random_effect, spawn_seeds
from oracles import assert_same_sample, product_fractional_cover

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
    def test_classical_validation(self):
        with pytest.raises(ValueError, match="support"):
            ClassicalHypergraph(3, [((0, 5), {0: 0.1})], 1.0)
        with pytest.raises(ValueError, match="leaks"):
            ClassicalHypergraph(3, [((0,), {1: 0.1})], 1.0)
        with pytest.raises(ValueError, match="eta"):
            ClassicalHypergraph(3, [((0,), {0: 0.5})], 0.4)
        with pytest.raises(ValueError, match="nonnegative"):
            ClassicalHypergraph(3, [((0,), {0: -0.1})], 1.0)

    def test_classical_mean_and_json(self):
        g = ClassicalHypergraph(
            4, [((0, 1), {0: 0.5, 1: 0.25}), ((2, 3), {2: 0.5, 3: 0.5})], 0.5
        )
        q = g.mean_measure([0.25, 0.75])
        assert np.allclose(q, [0.125, 0.0625, 0.375, 0.375])
        g2 = ClassicalHypergraph.from_json(g.to_json())
        assert g2.num_vertices == 4 and g2.eta == 0.5
        assert np.array_equal(g2.weights, g.weights)
        assert g2.supports == g.supports

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

    def test_diagonal_conversion(self):
        g = QuantumHypergraph(3, [np.diag([0.5, 0.0, 0.25]), np.diag([0.0, 1.0, 0.0])], 1.0)
        c = g.to_classical()
        assert c.supports == (frozenset({0, 2}), frozenset({1}))
        assert np.allclose(c.weights[0], [0.5, 0.0, 0.25])
        with pytest.raises(ValueError, match="diagonal"):
            QuantumHypergraph(2, [PLUS], 1.0).to_classical()


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


def e_uniform_instance():
    # 8 vertices, two disjoint 4-vertex edges, weight 1/e = 1/4 inside
    edges = [
        (range(0, 4), {v: 0.25 for v in range(0, 4)}),
        (range(4, 8), {v: 0.25 for v in range(4, 8)}),
    ]
    return ClassicalHypergraph(8, edges, 0.25)


class TestClassicalSample:
    def test_single_edge_exact(self):
        g = ClassicalHypergraph(4, [(range(4), {v: 0.25 for v in range(4)})], 0.25)
        res = classical_covering_sample(g, [1.0], eps=0.5, tau=0.5, seed=3)
        assert res.num_draws == 1
        assert res.excluded_vertices == ()
        assert np.array_equal(res.sampled_average, g.mean_measure([1.0]))
        assert res.certified
        assert res.details["l1_distance"] == 0.0

    def test_e_uniform_instance(self):
        g = e_uniform_instance()
        res = classical_covering_sample(g, [0.5, 0.5], eps=0.2, tau=0.2, seed=17)
        assert res.certified
        # draw-count formula frozen: 1 + 2 * (2 ln2 * 4) / 0.008
        assert math.isclose(res.details["draw_bound"], 1387.2943611198905)
        assert res.num_draws == 1387
        # verify every postcondition directly over all 8 vertices
        q = g.mean_measure([0.5, 0.5])
        counts = res.counts_vector(2)
        qbar = (counts[0] * g.weights[0] + counts[1] * g.weights[1]) / res.num_draws
        assert np.allclose(qbar, res.sampled_average)
        assert res.excluded_vertices == ()  # Q(v) = 1/8 >= 0.2/8 everywhere
        assert np.all(qbar >= (1 - 0.2) * q - 1e-12)
        assert np.all(qbar <= (1 + 0.2) * q + 1e-12)
        assert np.abs(q - qbar).sum() <= 2 * 0.2 + 2 * 0.2
        assert replay_covering_result(g, res, p=[0.5, 0.5], eps=0.2, tau=0.2)["all"]

    def test_seeded_random_instance(self):
        rng = make_rng(29)
        edges = []
        for _ in range(10):
            support = sorted(rng.choice(32, size=12, replace=False).tolist())
            edges.append((support, {v: float(rng.uniform(0.05, 0.5)) for v in support}))
        g = ClassicalHypergraph(32, edges, 0.5)
        p = rng.dirichlet(np.ones(10))
        res = classical_covering_sample(g, p, eps=0.3, tau=0.3, seed=31)
        assert res.certified
        assert res.details["excluded_mass"] <= 0.3
        assert replay_covering_result(g, res, p=p, eps=0.3, tau=0.3)["all"]

    def test_budget_exhaustion_reports_side(self):
        g = e_uniform_instance()
        with pytest.raises(RuntimeError, match="budget exhausted"):
            classical_covering_sample(g, [0.5, 0.5], eps=1e-4, tau=0.2, seed=1, draws=3)

    def test_unequal_masses_skip_l1_bound(self):
        g = ClassicalHypergraph(
            2, [((0,), {0: 0.5}), ((0, 1), {0: 0.5, 1: 0.5})], 0.5
        )
        res = classical_covering_sample(g, [0.4, 0.6], eps=0.5, tau=0.5, seed=9)
        assert res.details["l1_bound"] is None


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
        # same seed protocol: a diagonal family must reproduce the
        # classical sampler on the induced hypergraph, draw for draw
        diags = [
            np.diag([0.5, 0.3, 0.0001, 0.2]),
            np.diag([0.1, 0.4, 0.0001, 0.3]),
            np.diag([0.3, 0.1, 0.0001, 0.5]),
        ]
        g = QuantumHypergraph(4, diags, 0.5)
        p = [0.3, 0.3, 0.4]
        qres = quantum_covering_sample(g, p, eps=0.25, tau=0.3, seed=57)
        cres = classical_covering_sample(g.to_classical(), p, eps=0.25, tau=0.3, seed=57)
        assert qres.edge_multiplicities == cres.edge_multiplicities
        assert qres.num_draws == cres.num_draws
        assert qres.attempts == cres.attempts
        assert qres.certified == cres.certified
        assert np.allclose(np.real(np.diag(qres.sampled_average)), cres.sampled_average,
                           atol=1e-12)
        # vertex 2 sits below tau/dim = 0.075 and is cut on both sides
        assert cres.excluded_vertices == (2,)
        assert np.allclose(np.real(np.diag(qres.pi0)), [0.0, 0.0, 1.0, 0.0], atol=1e-12)


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
            # the full operators vanish off the span: slacks are at most 0
            assert a.details["sandwich_lower_slack"] <= 0.0
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
        monkeypatch.setattr(np.linalg, "eigh", spy(eigh, "eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy(eigvalsh, "eigvalsh"))
        res = quantum_covering_sample(g, [0.25] * 4, 0.3, 0.3, seed=86)
        assert res.attempts == 1
        # eigh of rho; both sandwich checks; the trace norm of rho - rhobar
        assert calls == [("eigh", (3, 3)), ("eigvalsh", (2, 3, 3)), ("eigvalsh", (3, 3))]


class TestOrbitGraph:
    @pytest.mark.parametrize("r", [2, 6])
    def test_full_rank_edges_are_exact_relabelings(self, monkeypatch, r):
        # one eigensolve: of the r x r Gram matrix when r < dim, else of C
        factor, weights, perms, edges = orbit(88, 6, r, 3)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)) or eigvalsh(m))
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        monkeypatch.undo()
        assert g.basis is None and calls == [(r, r)]
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
        assert g.basis is not None and g.span_dim == 6 and calls == [(2, 2)]
        assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(g.edges, edges))

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


class TestLazyLifts:
    def test_lifts_formed_on_first_read_only(self, monkeypatch):
        factor, weights, perms, _ = orbit(91, 8, 2, 3)
        g = QuantumHypergraph.from_orbit(factor, weights, perms)
        assert g.basis is not None
        lifted = []
        lift = g.lift
        monkeypatch.setattr(g, "lift", lambda c: lifted.append(np.shape(c)) or lift(c))
        res = quantum_covering_sample(g, [0.3, 0.3, 0.4], 0.3, 0.3, seed=92)
        assert lifted == []
        payload = res.to_json()
        assert len(lifted) == 2  # sampled_average and pi1; pi0 reuses pi1
        assert res.pi0.shape == res.pi1.shape == res.sampled_average.shape == (8, 8)
        assert len(lifted) == 2
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
