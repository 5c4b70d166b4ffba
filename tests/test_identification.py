"""Identification codes, the resolvability pipeline, and counting bounds."""

import collections
import functools
import hashlib
import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcover import channels, cli, covering, identification, linalg
from opcover.channels import (
    CQChannel,
    EmpiricalDistribution,
    conditional_typical_projector,
    embed_classical,
    output_state,
    tensor_output,
    type_enumerate,
    typical_projector,
)
from opcover.identification import (
    QIDCode,
    _sandwiched_edge,
    RegularizationResult,
    approximation_preserves_id,
    check_sequence_distribution,
    code_count_bound,
    evaluate_qid_code,
    quantization_resolution,
    quantize_distribution,
    random_qid_code,
    random_sparse_distribution,
    resolution_probe,
    resolvability_regularize,
    strong_converse_bound,
    type_class_conditionals,
    uniform_distribution,
)
from opcover.linalg import BoundViolation
from opcover.rng import haar_unitary, make_rng, random_density, random_distribution, random_effect, seed_stream

from oracles import assert_same_sample, dense_projector, distributions_identical, range_basis, spectral_walk

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.full((2, 2), 0.5)


def zero_plus_channel() -> CQChannel:
    return CQChannel([KET0, PLUS])


def identical_channel() -> CQChannel:
    state = np.diag([0.3, 0.7])
    return CQChannel([state, state])


def classical_output_tv(rows, p_dist, q_dist) -> float:
    """Total variation between classical n-fold output distributions."""
    rows = np.asarray(rows, dtype=float)
    n = len(next(iter(p_dist)))
    num_out = rows.shape[1]

    def push_forward(dist):
        out = {}
        for yn in itertools.product(range(num_out), repeat=n):
            total = 0.0
            for xn, w in dist.items():
                total += float(w) * math.prod(rows[x][y] for x, y in zip(xn, yn))
            out[yn] = total
        return out

    forward_p, forward_q = push_forward(p_dist), push_forward(q_dist)
    return 0.5 * math.fsum(abs(forward_p[y] - forward_q[y]) for y in forward_p)


def direct_acceptance(code: QIDCode, states) -> np.ndarray:
    """Recompute the acceptance matrix with plain kron loops."""
    size = code.num_messages
    out = np.zeros((size, size))
    for i, (_, effect) in enumerate(code.entries):
        for j, (dist, _) in enumerate(code.entries):
            total = 0.0
            for xn, w in dist.items():
                block = functools.reduce(np.kron, [states[s] for s in xn])
                total += float(w) * float(np.trace(effect @ block).real)
            out[i, j] = total
    return out


class TestSequenceDistributions:
    def test_coerces_keys_and_drops_zeros(self):
        key = (np.int64(1), np.int64(0))
        dist = check_sequence_distribution({(0, 1): 0.5, key: 0.5, (1, 1): 0.0})
        assert set(dist) == {(0, 1), (1, 0)}
        assert all(isinstance(s, int) for k in dist for s in k)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to"):
            check_sequence_distribution({(0,): 0.5, (1,): 0.4})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_sequence_distribution({(0,): 1.5, (1,): -0.5})

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_weight(self, w):
        # not an OverflowError from Fraction: a ValueError that names the weights
        with pytest.raises(ValueError, match="sequence weights must be nonnegative and finite"):
            check_sequence_distribution({(0,): w, (1,): 1.0})

    def test_rejects_symbol_outside_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            check_sequence_distribution({(0, 2): 1.0}, alphabet_size=2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            check_sequence_distribution({(0, 1): 0.5, (1,): 0.5})
        with pytest.raises(ValueError, match="length"):
            check_sequence_distribution({(0, 1): 1.0}, n=3)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError, match="no support"):
            check_sequence_distribution({(0,): 0.0, (1,): 0.0})

    def test_fraction_weights_stay_exact(self):
        dist = check_sequence_distribution({(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
        assert dist[(0,)] == Fraction(1, 3) and isinstance(dist[(0,)], Fraction)

    def test_uniform_distribution_exact(self):
        dist = uniform_distribution(2, 2)
        assert len(dist) == 4
        assert all(w == Fraction(1, 4) for w in dist.values())
        assert sum(dist.values()) == 1

    def test_random_sparse_distribution_deterministic(self):
        first = random_sparse_distribution(11, 2, 4, support=5)
        second = random_sparse_distribution(11, 2, 4, support=5)
        assert first == second
        assert len(first) == 5
        assert abs(sum(first.values()) - 1.0) < 1e-9
        assert all(len(xn) == 4 and max(xn) <= 1 for xn in first)

    def test_random_sparse_distribution_support_range(self):
        with pytest.raises(ValueError, match="support"):
            random_sparse_distribution(3, 2, 2, support=5)


class TestQIDCode:
    def test_basic_construction(self):
        code = QIDCode(1, [({(0,): 1.0}, np.eye(2)), ({(1,): 1.0}, np.diag([1.0, 0.0]))])
        assert code.num_messages == 2
        assert code.test_dim == 2

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="sum to"):
            QIDCode(1, [({(0,): 0.8}, np.eye(2))])

    def test_rejects_effect_above_identity(self):
        with pytest.raises(ValueError, match="operator interval"):
            QIDCode(1, [({(0,): 1.0}, 1.5 * np.eye(2))])

    def test_rejects_negative_effect(self):
        with pytest.raises(ValueError, match="operator interval"):
            QIDCode(1, [({(0,): 1.0}, np.diag([0.5, -0.2]))])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="share one dimension"):
            QIDCode(1, [({(0,): 1.0}, np.eye(2)), ({(1,): 1.0}, np.eye(3))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            QIDCode(1, [])

    def test_json_round_trip(self):
        rng = make_rng(5)
        code = QIDCode(
            2,
            [
                ({(0, 1): 0.25, (1, 0): 0.75}, random_effect(rng, 4)),
                ({(1, 1): 1.0}, random_effect(rng, 4)),
            ],
        )
        blob = json.dumps(code.to_json())
        back = QIDCode.from_json(json.loads(blob))
        assert back.n == code.n and back.num_messages == code.num_messages
        for (dist_a, eff_a), (dist_b, eff_b) in zip(code.entries, back.entries):
            assert dist_a == dist_b
            assert np.allclose(eff_a, eff_b, atol=0.0)


class TestEvaluate:
    def test_single_message_identity_test(self):
        channel = embed_classical(np.eye(2))
        code = QIDCode(1, [({(0,): 1.0}, np.eye(2))])
        lambda1, lambda2, acceptance = evaluate_qid_code(code, channel)
        assert lambda1 == 0.0
        assert lambda2 == 0.0
        assert acceptance.shape == (1, 1) and acceptance[0, 0] == 1.0

    def test_orthogonal_transmission_code_is_perfect(self):
        channel = embed_classical(np.eye(2))
        code = QIDCode(
            1,
            [({(0,): 1.0}, np.diag([1.0, 0.0])), ({(1,): 1.0}, np.diag([0.0, 1.0]))],
        )
        lambda1, lambda2, acceptance = evaluate_qid_code(code, channel)
        assert lambda1 == 0.0 and lambda2 == 0.0
        assert np.array_equal(acceptance, np.eye(2))

    def test_acceptance_orientation(self):
        # row = which test fires, column = which message was sent
        code = QIDCode(1, [({(0,): 1.0}, KET0.copy()), ({(1,): 1.0}, np.zeros((2, 2)))])
        lambda1, lambda2, acceptance = evaluate_qid_code(code, zero_plus_channel())
        assert acceptance[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert acceptance[1, 0] == 0.0
        assert lambda2 == pytest.approx(0.5, abs=1e-12)
        assert lambda1 == 1.0  # message 1 carries the zero test

    def test_seeded_code_matches_direct_recomputation(self):
        channel = zero_plus_channel()
        entries = []
        for i in range(3):
            dist = random_sparse_distribution(71 + i, 2, 3, support=4)
            entries.append((dist, random_effect(make_rng(100 + i), 8)))
        code = QIDCode(3, entries)
        lambda1, lambda2, acceptance = evaluate_qid_code(code, channel)
        oracle = direct_acceptance(code, [KET0, PLUS])
        assert np.allclose(acceptance, oracle, atol=1e-12)
        assert lambda1 == pytest.approx(max(1.0 - oracle[i, i] for i in range(3)), abs=1e-12)
        assert lambda2 == pytest.approx(
            max(oracle[i, j] for i in range(3) for j in range(3) if i != j), abs=1e-12
        )

    def test_dimension_mismatch(self):
        code = QIDCode(2, [({(0, 0): 1.0}, np.eye(2))])
        with pytest.raises(ValueError, match="dimension"):
            evaluate_qid_code(code, zero_plus_channel())


class TestPerTypeConditional:
    def test_distribution_on_one_class_is_unchanged(self):
        dist = {(0, 0, 1): 0.25, (0, 1, 0): 0.5, (1, 0, 0): 0.25}
        (mass, cond), = type_class_conditionals(dist, 2).values()
        assert mass == 1
        assert cond == {xn: Fraction(w) for xn, w in dist.items()}

    def test_distribution_validated(self):
        # a zero-weight atom alone in its type class is dropped, not divided by
        classes = type_class_conditionals({(0, 0): 1.0, (1, 1): 0.0}, 2)
        assert classes == {(2, 0): (1, {(0, 0): 1})}
        with pytest.raises(ValueError, match="nonnegative"):
            type_class_conditionals({(0, -1): 1.0}, 2)
        with pytest.raises(ValueError, match="outside the alphabet"):
            type_class_conditionals({(0, 2): 1.0}, 2)

    def test_uniform_conditional_on_balanced_type(self):
        classes = type_class_conditionals(uniform_distribution(2, 2), 2)
        assert classes[(1, 1)] == (Fraction(1, 2), {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        assert set(classes) == {(2, 0), (1, 1), (0, 2)}

    def test_recombination_is_exact(self):
        for seed in range(20):
            weights = random_distribution(make_rng(900 + seed), 8)
            dist = {
                xn: float(w)
                for xn, w in zip(itertools.product(range(2), repeat=3), weights)
            }
            mixed = {}
            for t in type_enumerate(3, 2):
                mass = sum(
                    Fraction(w)
                    for xn, w in dist.items()
                    if tuple(xn.count(s) for s in range(2)) == t.counts
                )
                if mass == 0:
                    continue
                got_mass, cond = type_class_conditionals(dist, 2)[t.counts]
                assert got_mass == mass
                for xn, w in cond.items():
                    mixed[xn] = mixed.get(xn, Fraction(0)) + mass * w
            assert set(mixed) == {xn for xn, w in dist.items() if w}
            for xn, w in mixed.items():
                assert w == Fraction(dist[xn])  # exact, not approximate


class TestQuantize:
    def test_halves_with_odd_quanta(self):
        assert quantize_distribution([0.5, 0.5], 7) == [Fraction(4, 7), Fraction(3, 7)]

    def test_exact_multiples_unchanged(self):
        assert quantize_distribution([Fraction(1, 4), Fraction(3, 4)], 4) == [
            Fraction(1, 4),
            Fraction(3, 4),
        ]

    def test_zeros_stay_zero(self):
        quantized = quantize_distribution([0.0, 0.3, 0.0, 0.7], 9)
        assert quantized[0] == 0 and quantized[2] == 0
        assert sum(quantized) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="nonnegative"):
            quantize_distribution([0.5, -0.5], 3)
        with pytest.raises(ValueError, match="positive"):
            quantize_distribution([0.5, 0.5], 0)
        with pytest.raises(ValueError, match="total mass"):
            quantize_distribution([0.0, 0.0], 3)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8).filter(
            lambda v: sum(v) > 1e-6
        ),
        st.integers(min_value=1, max_value=400),
    )
    @settings(deadline=None, max_examples=150)
    def test_total_variation_budget(self, weights, quanta):
        quantized = quantize_distribution(weights, quanta)
        assert sum(quantized) == 1
        total = sum(Fraction(w) for w in weights)
        moved = sum(
            abs(Fraction(w) / total - r) for w, r in zip(weights, quantized)
        )
        assert moved <= Fraction(len(weights), quanta)
        for w, r in zip(weights, quantized):
            assert abs(Fraction(w) / total - r) <= Fraction(1, quanta)
            if w == 0:
                assert r == 0

    def test_resolution_formula_exact(self):
        assert quantization_resolution(4, 2, 0.6) == 125
        # the pure float path rounds this one up; the exact path must not
        assert math.ceil(3 * 21**2 / 0.35) == 3781
        assert quantization_resolution(20, 2, 0.35) == 3780

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="lambda"):
            quantization_resolution(4, 2, 1.0)
        with pytest.raises(ValueError, match="positive integers"):
            quantization_resolution(0, 2, 0.5)


class TestCountingBounds:
    def test_strong_converse_exact_at_decimal_inputs(self):
        bound = strong_converse_bound(100, 0.6, 0.01)
        assert bound == 61
        assert isinstance(bound, Fraction)
        # a case where the float path misses the integer entirely
        assert 50 * (0.5 + 0.08) != 29
        assert strong_converse_bound(50, 0.5, 0.08) == 29

    def test_strong_converse_monotone_in_delta(self):
        assert strong_converse_bound(50, 0.5, 0.2) > strong_converse_bound(50, 0.5, 0.1)
        assert strong_converse_bound(50, 0.5, Fraction(1, 10**9)) > 25

    def test_strong_converse_validation(self):
        with pytest.raises(ValueError, match="delta"):
            strong_converse_bound(10, 0.5, 0.0)
        with pytest.raises(ValueError, match="positive integer"):
            strong_converse_bound(0, 0.5, 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            strong_converse_bound(10, -0.5, 0.1)

    def test_code_count_bound_exact_cases(self):
        assert code_count_bound(1, 1, 2, 1) == 1
        assert code_count_bound(125, 64, 2, 4) == 32000
        assert isinstance(code_count_bound(125, 64, 2, 4), int)
        assert code_count_bound(3, 5, 4, 2) == 60

    def test_code_count_bound_nonbinary_alphabet(self):
        import mpmath

        value = code_count_bound(2, 3, 3, 2)
        assert isinstance(value, mpmath.mpf)
        assert float(value) == pytest.approx(12 * math.log2(3), rel=1e-12)

    def test_code_count_bound_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            code_count_bound(0, 1, 2, 1)
        with pytest.raises(ValueError, match="positive integer"):
            code_count_bound(1, 1.5, 2, 1)

    def test_double_log_of_count_bound_dominated_for_large_n(self):
        # with K from the quantization formula and L growing like
        # 2^(n C + sqrt(n)), the converse exponent n (C + delta) wins
        margins = []
        for k in range(13, 17):
            n = 2**k
            quanta = quantization_resolution(n, 2, 0.6)
            draws = 1 << math.ceil(0.6 * n + math.sqrt(n))
            log2_count = code_count_bound(quanta, draws, 2, n)
            double_log = log2_count.bit_length()  # log2 within one bit
            margins.append(float(strong_converse_bound(n, 0.6, 0.05)) - double_log)
        assert all(m > 0 for m in margins)
        assert margins == sorted(margins)


class TestRegularize:
    def test_identical_outputs_give_zero_distance(self):
        dist = random_sparse_distribution(23, 2, 3, support=5)
        reg = resolvability_regularize(dist, identical_channel(), 0.6, seed=40)
        assert reg.measured_distance <= 1e-9
        assert reg.certified
        assert reg.details["constants_mode"] == "paper-constants"

    def test_point_mass_comes_back_exactly(self):
        dist = {(0, 1, 1): 1.0}
        reg = resolvability_regularize(dist, zero_plus_channel(), 0.6, seed=41)
        assert distributions_identical(reg.sparse_distribution, dist)
        assert reg.measured_distance <= 1e-9

    def test_end_to_end_support_and_lattice(self):
        dist = random_sparse_distribution(17, 2, 4, support=10)
        reg = resolvability_regularize(dist, zero_plus_channel(), 0.6, seed=42)
        assert reg.K == 125 == quantization_resolution(4, 2, 0.6)
        assert reg.support_size <= reg.K * reg.L
        total = sum(reg.sparse_distribution.values())
        assert total == 1  # exact Fraction arithmetic end to end
        lattice = reg.K * reg.L
        for w in reg.sparse_distribution.values():
            assert (Fraction(w) * lattice).denominator == 1  # multiples of 1/(K L)
        assert reg.details["quantization_tv"] <= 0.6 / 3 + 1e-15
        assert reg.measured_distance >= 0.0

    def test_uniform_single_type_meets_sandwich_budget(self):
        seqs = [xn for xn in itertools.product(range(2), repeat=4) if sum(xn) == 2]
        dist = {xn: Fraction(1, len(seqs)) for xn in seqs}
        eps = tau = 0.01
        lam = 0.6
        reg = resolvability_regularize(
            dist, zero_plus_channel(), lam, seed=43, alpha=1e6, eps=eps, tau=tau
        )
        assert reg.details["constants_mode"] == "override"
        active = [row for row in reg.per_type_details if row["active"]]
        assert len(active) == 1 and active[0]["type"] == [2, 2]
        budget = (eps + tau) + math.sqrt(8.0 * (eps + tau)) + lam / 3.0
        assert 2.0 * reg.measured_distance <= budget + 1e-9
        assert reg.certified

    def test_prescribed_draws(self):
        dist = uniform_distribution(2, 2)
        reg = resolvability_regularize(
            dist, zero_plus_channel(), 0.5, seed=44, alpha=1e6, eps=0.4, tau=0.4, draws=512
        )
        assert reg.L == 512
        assert reg.details["constants_mode"] == "override"
        for row in reg.per_type_details:
            if row["active"]:
                assert row["draws"] == 512

    def test_distance_mean_monotone_in_draws(self):
        dist = uniform_distribution(2, 2)
        channel = zero_plus_channel()
        means = []
        for draws in (8, 64, 512):
            values = [
                resolvability_regularize(
                    dist, channel, 0.5, seed=20_000 + i,
                    alpha=1e6, eps=0.45, tau=0.45, draws=draws,
                ).measured_distance
                for i in range(50)
            ]
            means.append(sum(values) / len(values))
        assert means[1] <= means[0] + 1e-3
        assert means[2] <= means[1] + 1e-3

    def test_commuting_channel_matches_classical_tv(self):
        rows = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        channel = embed_classical(rows)
        dist = random_sparse_distribution(101, 2, 3, support=6)
        reg = resolvability_regularize(dist, channel, 0.5, seed=45)
        sparse_float = {xn: float(w) for xn, w in reg.sparse_distribution.items()}
        oracle = classical_output_tv(rows, dist, sparse_float)
        assert reg.measured_distance == pytest.approx(oracle, abs=1e-9)

    def test_certified_semantics_recomputable(self):
        dist = random_sparse_distribution(31, 2, 3, support=6)
        reg = resolvability_regularize(dist, zero_plus_channel(), 0.4, seed=46)
        active = [row for row in reg.per_type_details if row["active"]]
        expected = reg.measured_distance <= 0.4 / 3.0 and all(
            row["covering_certified"] for row in active
        )
        assert reg.certified == expected

    def test_deterministic(self):
        dist = random_sparse_distribution(53, 2, 3, support=4)
        first = resolvability_regularize(dist, zero_plus_channel(), 0.6, seed=47)
        second = resolvability_regularize(dist, zero_plus_channel(), 0.6, seed=47)
        assert distributions_identical(first.sparse_distribution, second.sparse_distribution)
        assert first.measured_distance == second.measured_distance

    def test_per_type_rows_cover_every_type(self):
        dist = {(0, 0): 0.5, (1, 1): 0.5}
        reg = resolvability_regularize(dist, zero_plus_channel(), 0.5, seed=48)
        assert len(reg.per_type_details) == len(type_enumerate(2, 2))
        for row in reg.per_type_details:
            if row["active"]:
                assert row["edges_drawn"] >= 1
            else:
                assert "draws" not in row
        active_types = {tuple(row["type"]) for row in reg.per_type_details if row["active"]}
        assert active_types == {(2, 0), (0, 2)}

    def test_parameter_validation(self):
        dist = {(0,): 1.0}
        channel = zero_plus_channel()
        with pytest.raises(ValueError, match="lambda"):
            resolvability_regularize(dist, channel, 0.0, seed=1)
        with pytest.raises(ValueError, match="lambda"):
            resolvability_regularize(dist, channel, 1.0, seed=1)
        with pytest.raises(ValueError, match="alphabet"):
            resolvability_regularize({(2,): 1.0}, channel, 0.5, seed=1)
        with pytest.raises(ValueError, match="draws"):
            resolvability_regularize(dist, channel, 0.5, seed=1, draws=0)

    def test_result_invariants_enforced(self):
        with pytest.raises(BoundViolation, match="exceeds the K\\*L budget"):
            RegularizationResult(
                sparse_distribution={(0,): Fraction(1, 2), (1,): Fraction(1, 2)},
                measured_distance=0.0,
                K=1,
                L=1,
                per_type_details=(),
                certified=False,
            )
        with pytest.raises(BoundViolation, match="sum to"):
            RegularizationResult(
                sparse_distribution={(0,): Fraction(1, 2)},
                measured_distance=0.0,
                K=2,
                L=2,
                per_type_details=(),
                certified=False,
            )


class TestFactoredSandwich:
    MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])

    def channels(self, rng):
        return {
            # every letter and the mixture diagonal: identity bases throughout
            "diagonal": embed_classical([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]),
            # diagonal letter next to a rotated one
            "mixed": CQChannel([np.diag([0.7, 0.3]), random_density(rng, 2)]),
            # rotated letters whose balanced mixture is I/2 (diagonal)
            "rotated": CQChannel([0.8 * rho + 0.1 * np.eye(2) for rho in (PLUS, self.MINUS)]),
            "quantum": CQChannel([random_density(rng, 2) for _ in range(3)]),
        }

    def test_edge_matches_dense_sandwich(self):
        rng = make_rng(89)
        branches = set()
        for name, ch in self.channels(rng).items():
            a, d = ch.alphabet_size, ch.dim
            for n in range(1, 6):
                xn = tuple(int(s) for s in rng.permutation(np.arange(n) % a))
                t = EmpiricalDistribution.from_sequence(xn, a)
                mix = typical_projector(output_state(t.probabilities(), ch), n, 2.0 * math.sqrt(a))
                cond = conditional_typical_projector(ch, xn, 2.0)
                overlaps = [
                    mix.factor_bases[i].conj().T @ cond.factor_bases[i] for i in range(n)
                ]
                factor = _sandwiched_edge(mix, cond.digits, overlaps)
                edge = (factor * cond.probs) @ factor.conj().T
                pi, basis = dense_projector(cond), range_basis(mix)
                dense = basis.conj().T @ pi @ tensor_output(xn, ch) @ pi @ basis
                assert edge.shape == (mix.rank, mix.rank)
                assert np.abs(edge - dense).max() <= 1e-12, (name, n)
                branches.update(
                    (np.array_equal(m, np.eye(d)), np.array_equal(c, np.eye(d)))
                    for m, c in zip(mix.factor_bases, cond.factor_bases)
                )
        # every pairing of identity and rotated letter bases occurred
        assert branches == {(True, True), (True, False), (False, True), (False, False)}


def type_graphs(monkeypatch, P, channel, lam, seed, **overrides):
    """Per active type, in type order: (factor, weights, perms, graph, p, eps, tau).

    The first three are what a resolvability run hands from_orbit, the
    rest what it hands the sampler for the graph built from them.  A
    type with one member is not sampled; its p is the point mass [1.0].
    """
    built, sampled = [], {}
    from_orbit = covering.QuantumHypergraph.from_orbit.__func__
    sampler = covering._sample_in_span

    def record_orbit(cls, factor, weights, perms):
        g = from_orbit(cls, factor, weights, perms)
        built.append((factor, weights, perms, g))
        return g

    def record_sample(g, p, eps, tau, seed, draws=None):
        # escalation samples a graph again
        sampled.setdefault(id(g), p)
        return sampler(g, p, eps, tau, seed, draws=draws)

    monkeypatch.setattr(covering.QuantumHypergraph, "from_orbit", classmethod(record_orbit))
    monkeypatch.setattr(covering, "_sample_in_span", record_sample)
    reg = resolvability_regularize(P, channel, lam, seed=seed, **overrides)
    monkeypatch.undo()
    eps, tau = reg.details["eps"], reg.details["tau"]
    return [
        (factor, weights, perms, g, sampled[id(g)] if g.num_edges > 1 else np.array([1.0]), eps, tau)
        for factor, weights, perms, g in built
    ]


def zero_plus_type_graphs(monkeypatch, P, n):
    return type_graphs(monkeypatch, P, zero_plus_channel(), 0.6, n)


# two active types of one member each: of 5 active types (seed 13, a
# random law on 12 sequences) and of 8 (uniform n = 7, the pure types)
SINGLE_MEMBER_CONFIGS = [
    {"command": "resolvability", "seed": 13, "params": {
        "channel": {"kind": "random", "dim": 2, "inputs": 2},
        "P": {"kind": "random", "n": 7, "support": 12}, "lambda": 0.6}},
    {"command": "resolvability", "seed": 16, "params": {
        "channel": {"kind": "random", "dim": 2, "inputs": 2},
        "P": {"kind": "uniform", "n": 7}, "lambda": 0.6}},
]


def _digest_id(config: dict) -> str:
    """A digest pin's test id: command, typicality mode or law length, and seed; stable across retakes."""
    params = config["params"]
    detail = params.get("mode") or (f"n{params['P']['n']}" if "P" in params else None)
    return "-".join(x for x in (config["command"], detail, f"seed{config['seed']}") if x)


class TestSpanCompressedResolvability:
    LAWS = {
        5: lambda: uniform_distribution(2, 5),
        6: lambda: uniform_distribution(2, 6),
        7: lambda: random_sparse_distribution(7, 2, 7, 12),
    }

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_rank_one_types_match_the_dense_graph(self, monkeypatch, n):
        types = zero_plus_type_graphs(monkeypatch, self.LAWS[n](), n)
        compressed = 0
        for factor, weights, perms, g, p, eps, tau in types:
            # every zero-plus conditional projector has rank 1
            assert factor.shape[1] == 1 and len(perms) == g.num_edges
            if g.num_edges < g.dim:
                assert g.basis is not None and g.span_dim == g.num_edges
                compressed += 1
            else:  # the pure types (all 0 or all 1) have a rank-1 mixture range
                assert g.basis is None
            dense = covering.QuantumHypergraph(
                g.dim, [linalg.hermitize((factor[q] * weights) @ factor[q].conj().T) for q in perms],
                None,
            )
            assert abs(g.eta - dense.eta) <= 1e-12
            a = covering.quantum_covering_sample(g, p, eps, tau, seed=5)
            b = covering.quantum_covering_sample(dense, p, eps, tau, seed=5)
            assert_same_sample(a, b)
        assert compressed >= 2

    def test_no_eigensolve_beyond_the_span(self, monkeypatch):
        factor, weights, perms, _, p, eps, tau = zero_plus_type_graphs(
            monkeypatch, uniform_distribution(2, 6), 6)[2]
        sizes = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def spy(fn):
            def wrapped(m):
                sizes.append(np.shape(m)[-1])
                return fn(m)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", spy(eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy(eigvalsh))
        g = covering.QuantumHypergraph.from_orbit(factor, weights, perms)
        covering.quantum_covering_sample(g, p, eps, tau, seed=6)
        assert sizes and max(sizes) <= g.span_dim < g.dim

    def test_no_dense_lift(self, monkeypatch):
        # resolvability reads its draw counts off the sampler's
        # span-coordinate core, which lifts nothing to dim x dim
        monkeypatch.setattr(covering.QuantumHypergraph, "lift", lambda g, c: pytest.fail("lifted"))
        reg = resolvability_regularize(uniform_distribution(2, 6), zero_plus_channel(), 0.6, seed=7)
        assert reg.L > 0

    # sha256 of `results`: mixed letters keep full-rank conditional
    # projectors, so the span compression moved nothing; the
    # resolvability digests were retaken when measured_distance became
    # one signed product mixture, and again when each type's edges
    # became relabelings of one reference edge with one eigensolve,
    # which moved only the last bits of eta and formula_draws (2.1e-15
    # relative); the cover-sample digests were retaken when the sandwich
    # slacks became relative ones (only the two slack fields moved), and
    # when the always-empty excluded-vertex list left the payload (the
    # earlier results without that key hash to the new digests); the
    # seven resolvability digests were retaken when an isometric edge
    # factor took its spectrum from its weights (eta and formula_draws
    # moved by at most 4.8e-15 relative) and pure letters got the Gram
    # distance (measured_distance of seed 15 moved by 4.1e-15 relative)
    RESULT_HASHES = [
        ({"command": "resolvability", "seed": 11, "params": {
            "channel": {"kind": "random", "dim": 2, "inputs": 2},
            "P": {"kind": "uniform", "n": 5}, "lambda": 0.6}},
         "9f0f2075acf1d7cddec174bb38e76b8b6951010192dfa21d42c590f70a3159b6"),
        ({"command": "resolvability", "seed": 12, "params": {
            "channel": {"kind": "random", "dim": 2, "inputs": 2},
            "P": {"kind": "uniform", "n": 4}, "lambda": 0.5}},
         "0954b56f2ff5111fbb236203e46e954ef843238c2aa6360f09da66fef1527046"),
        ({"command": "resolvability", "seed": 13, "params": {
            "channel": {"kind": "random", "dim": 2, "inputs": 2},
            "P": {"kind": "random", "n": 6, "support": 10}, "lambda": 0.7}},
         "523546a49cd1bbed81cb11ae09aa45b7669a05b41032d9265f84a33ccf589662"),
        ({"command": "cover-sample", "seed": 21, "params": {
            "hypergraph": {"kind": "random", "dim": 3, "num_edges": 4}, "eps": 0.3, "tau": 0.3}},
         "c3dbb361626596eb228dc67a53a42bf1677caab04022fda4996ee0c82bdba070"),
        ({"command": "cover-sample", "seed": 22, "params": {
            "hypergraph": {"kind": "random", "dim": 2, "num_edges": 3}, "eps": 0.2, "tau": 0.25}},
         "8b38a5a9faac4ce9d5138770b607e4911ec10abbe551780e2a0da31f6164dac7"),
        # zero-plus types take from_orbit's narrow (QR span) route, the one
        # where a lift is not the identity; taken before resolvability read
        # its draw counts off the sampler's span-coordinate core
        ({"command": "resolvability", "seed": 14, "params": {
            "channel": {"kind": "zero-plus"}, "P": {"kind": "uniform", "n": 6}, "lambda": 0.6}},
         "9ef4dd75f4562924572ef5a351b49a6b15b3354a219226fff34677f1a1e362e9"),
        ({"command": "resolvability", "seed": 15, "params": {
            "channel": {"kind": "zero-plus"}, "P": {"kind": "random", "n": 7, "support": 12}, "lambda": 0.6}},
         "b306a05aab7b396bd4062fdc943ed67ecff0a8ccdb58d996d5f5ccda25699d01"),
        # types of one member: taken while every active type was still sampled
        (SINGLE_MEMBER_CONFIGS[0],
         "86e4bef8ef37aaf00c3407a74203e9d40db9a1faa7854a2e48ba81be86636fce"),
        (SINGLE_MEMBER_CONFIGS[1],
         "1b085b4954933e9f4829f9154015c8f074f3300159621300b192ed964151eecd"),
    ]

    @pytest.mark.parametrize("config, digest", RESULT_HASHES,
                             ids=[_digest_id(c) for c, _ in RESULT_HASHES])
    def test_mixed_letter_results_unchanged(self, config, digest):
        results = cli.run(config).results
        assert hashlib.sha256(cli.canonical_json(results).encode()).hexdigest() == digest

    # sha256 of `results` on diagonal letters, whose factor bases are
    # identities; taken before those bases replaced a None sentinel and
    # before conditional masks were composed from block masks, which
    # moved no byte
    CLASSICAL_3X3 = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]
    DIAGONAL_LETTER_HASHES = [
        ({"command": "typicality", "seed": 1, "params": {
            "mode": "state", "alpha": 3.0, "n": 10,
            "state": {"dim": 2, "re": [[0.7, 0.0], [0.0, 0.3]]}}},
         "6cd3d98ff7df2ac0aa0da91ba68198e727f519d70e2bac47aca39c8d04b76b64"),
        ({"command": "typicality", "seed": 1, "params": {
            "mode": "conditional", "alpha": 3.0, "channel": {"kind": "bsc", "p": 0.11},
            "sequence": [0, 1, 1, 0, 1, 0, 0, 1, 1]}},
         "82a9b66849c2df23cff5a289ec0f5aff9f5bf948b3201f051e14d1c3b14be047"),
        ({"command": "typicality", "seed": 2, "params": {
            "mode": "conditional", "alpha": 2.0,
            "channel": {"kind": "classical", "rows": CLASSICAL_3X3}, "sequence": [0, 2, 1, 1, 0, 2]}},
         "f956499f1bd353c0f3056e85b5cf0f732da513069a63d8c5032934b90f915d18"),
        ({"command": "resolvability", "seed": 3, "params": {
            "channel": {"kind": "bsc", "p": 0.11}, "P": {"kind": "uniform", "n": 6}, "lambda": 0.6}},
         "666cdfab5886d7861b39170c5311d97b38b8a3e04ff4f916a34a0b224cdf1d54"),
        ({"command": "resolvability", "seed": 4, "params": {
            "channel": {"kind": "classical", "rows": CLASSICAL_3X3},
            "P": {"kind": "random", "n": 4, "support": 12}, "lambda": 0.6}},
         "3aa514b33adc6cd9bb5b39055ed0e294eb0ba45f89b9dd5058786e51ec8e4436"),
    ]

    @pytest.mark.parametrize("config, digest", DIAGONAL_LETTER_HASHES,
                             ids=[_digest_id(c) for c, _ in DIAGONAL_LETTER_HASHES])
    def test_diagonal_letter_results_unchanged(self, config, digest):
        results = cli.run(config).results
        assert hashlib.sha256(cli.canonical_json(results).encode()).hexdigest() == digest


class TestTypeOrbits:
    # channel, n, overrides, then the regimes seen (basis is None: full
    # rank) and how many mixture ranges are proper subspaces
    CASES = {
        # mixed letters at paper constants: full-rank conditional ranges
        "paper-constants": (lambda: channels.random_channel(11, 2, 2), 6, {}, {True}, 0),
        # the window cuts every mixture range, and both regimes occur
        "cut-mixture-range": (lambda: channels.random_channel(17, 2, 2), 7, {"alpha": 3.0},
                              {True, False}, 8),
        # rank-1 conditional ranges: the narrow types take the QR route
        "zero-plus": (zero_plus_channel, 6, {}, {True, False}, 2),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_orbit_edges_match_the_direct_build(self, monkeypatch, name):
        channel, n, overrides, want_regimes, want_cut = self.CASES[name]
        ch = channel()
        types = type_graphs(monkeypatch, uniform_distribution(2, n), ch, 0.6, 3, **overrides)
        alpha = overrides.get("alpha", math.sqrt(600.0 * 2 * 2) / 0.6)
        regimes, cut = set(), 0
        for (*_, g, _, _, _), t in zip(types, type_enumerate(n, 2)):
            seqs = sorted(xn for xn in itertools.product(range(2), repeat=n)
                          if xn.count(1) == t.counts[1])
            mix = typical_projector(output_state(t.probabilities(), ch), n, alpha * math.sqrt(2))
            assert g.num_edges == len(seqs) and g.dim == mix.rank
            for edge, xn in zip(g.edges, seqs):
                cond = conditional_typical_projector(ch, xn, alpha)
                overlaps = [mix.factor_bases[0].conj().T @ ch.systems[x][1] for x in xn]
                factor = _sandwiched_edge(mix, cond.digits, overlaps)
                assert np.abs(edge - (factor * cond.probs) @ factor.conj().T).max() <= 1e-13, xn
            regimes.add(g.basis is None)
            cut += mix.rank < mix.dim
        assert len(types) == n + 1
        assert regimes == want_regimes and cut == want_cut

    def test_no_edge_eigensolve_in_the_full_rank_regime(self, monkeypatch):
        builds = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        from_orbit = covering.QuantumHypergraph.from_orbit.__func__

        def record_orbit(cls, factor, weights, perms):
            calls = []
            monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(("eigh", np.shape(m))))
            monkeypatch.setattr(
                np.linalg, "eigvalsh", lambda m: calls.append(("eigvalsh", np.shape(m))) or eigvalsh(m)
            )
            try:
                g = from_orbit(cls, factor, weights, perms)
            finally:
                monkeypatch.setattr(np.linalg, "eigh", eigh)
                monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            builds.append((g, calls))
            return g

        monkeypatch.setattr(covering.QuantumHypergraph, "from_orbit", classmethod(record_orbit))
        ch = channels.random_channel(11, 2, 2)
        reg = resolvability_regularize(uniform_distribution(2, 6), ch, 0.6, seed=11)
        assert len(builds) == sum(row["active"] for row in reg.per_type_details) == 7
        assert max(g.num_edges for g, _ in builds) == 20
        # every mixture typical projector is the whole space, so each edge
        # factor is an isometry and its weights are its spectrum
        for g, calls in builds:
            assert g.basis is None
            assert calls == []


class TestSingleMemberTypes:
    @staticmethod
    def run(monkeypatch, config):
        """(results, the graphs from_orbit built, the graphs sampled in call order)."""
        built, sampled = [], []
        from_orbit = covering.QuantumHypergraph.from_orbit.__func__
        sampler = covering._sample_in_span

        def record_orbit(cls, factor, weights, perms):
            built.append(from_orbit(cls, factor, weights, perms))
            return built[-1]

        def record_sample(g, p, eps, tau, seed, draws=None):
            sampled.append(g)
            return sampler(g, p, eps, tau, seed, draws=draws)

        monkeypatch.setattr(covering.QuantumHypergraph, "from_orbit", classmethod(record_orbit))
        monkeypatch.setattr(covering, "_sample_in_span", record_sample)
        results = cli.run(config).results
        monkeypatch.undo()
        return results, built, sampled

    @pytest.mark.parametrize("config", SINGLE_MEMBER_CONFIGS)
    def test_only_types_of_several_members_are_sampled(self, monkeypatch, config):
        results, built, sampled = self.run(monkeypatch, config)
        rows = [row for row in results["per_type_details"] if row["active"]]
        assert [g.num_edges for g in built] == [row["class_support"] for row in rows]
        assert [g.num_edges for g in built].count(1) == 2
        assert results["details"]["stages_used"] == 1
        # one sampler call per active type of several members, in type order
        assert [id(g) for g in sampled] == [id(g) for g in built if g.num_edges > 1]

    @pytest.mark.parametrize("config", SINGLE_MEMBER_CONFIGS)
    def test_bypassed_rows_are_what_the_sampler_returns(self, monkeypatch, config):
        results, built, _ = self.run(monkeypatch, config)
        L, eps, tau = results["L"], results["details"]["eps"], results["details"]["tau"]
        rows = [row for row in results["per_type_details"] if row["active"]]
        sparse = {tuple(xn): Fraction(w) for xn, w in results["sparse_distribution"]}
        singles = [(g, row) for g, row in zip(built, rows) if g.num_edges == 1]
        assert len(singles) == 2
        for g, row in singles:
            for seed in range(3):
                # the sampler's report: its core decides these counts without the spectral test
                res = covering.quantum_covering_sample(g, [1.0], eps, tau, seed, draws=L)
                details = res.details
                assert res.edge_multiplicities == {0: L} and res.num_draws == row["draws"] == L
                assert res.attempts == row["attempts"] == 1
                assert row["edges_drawn"] == len(res.edge_multiplicities) == 1
                assert details["draw_bound"] == row["formula_draws"]
                assert row["beyond_bound"] == (L > details["draw_bound"])
                assert row["covering_certified"] is True
                # the sampler's checks pass with nothing to spare
                assert details["excluded_mass"] <= tau and details["l1_distance"] <= 1e-12
                assert min(details["sandwich_lower_slack"], details["sandwich_upper_slack"]) >= 0.0
            # all L draws land on the one member: it keeps its type's whole quantized weight
            (xn,) = [xn for xn in sparse if list(np.bincount(xn, minlength=2)) == row["type"]]
            assert sparse[xn] == Fraction(row["quantized_weight"])


class TestFamilyLadder:
    """covering.sample_family's stages, reached through a core that fails on demand.

    Zero-plus, uniform P at n = 4, alpha = 3, eps = tau = 0.3: five active
    types, three of several members; every type passes at stage 0 unpatched.
    """

    P = uniform_distribution(2, 4)
    KW = {"alpha": 3.0, "eps": 0.3, "tau": 0.3}
    SEED = 5

    @classmethod
    def run(cls, monkeypatch, fail, **overrides):
        """(the regularization, the core's calls as (graph, seed, draws)).

        fail(call index) returns the exception the core raises at that call, or None.
        """
        calls = []
        core = covering._sample_in_span

        def spy(g, p, eps, tau, seed, draws=None):
            calls.append((g, seed, draws))
            exc = fail(len(calls) - 1)
            if exc is not None:
                raise exc
            return core(g, p, eps, tau, seed, draws)

        monkeypatch.setattr(covering, "_sample_in_span", spy)
        reg = cls.plain(**overrides)
        monkeypatch.undo()
        return reg, calls

    @classmethod
    def plain(cls, **overrides):
        kwargs = dict(cls.KW, **overrides)
        return resolvability_regularize(cls.P, zero_plus_channel(), 0.6, cls.SEED, **kwargs)

    @staticmethod
    def exhausted(index):
        return covering.SamplingExhausted("sampling budget exhausted") if index == 0 else None

    @staticmethod
    def always_exhausted(index):
        return covering.SamplingExhausted("sampling budget exhausted")

    def test_exhaustion_at_stage_zero_doubles_L_once(self, monkeypatch):
        plain = self.plain()
        assert plain.details["stages_used"] == 1
        reg, _ = self.run(monkeypatch, self.exhausted)
        assert reg.details["stages_used"] == 2
        assert reg.L == 2 * plain.L
        assert reg.details["base_draws"] == plain.details["base_draws"] == plain.L
        active = [row for row in reg.per_type_details if row["active"]]
        assert all(row["draws"] == reg.L and row["beyond_bound"] for row in active)

    def test_stage_seeds_follow_the_seed_stream(self, monkeypatch):
        reg, calls = self.run(monkeypatch, self.exhausted)
        sizes = [row["class_support"] for row in reg.per_type_details if row["active"]]
        sampled = [j for j, size in enumerate(sizes) if size > 1]
        assert len(sizes) == 5 and len(sampled) == 3
        stream = seed_stream(self.SEED)
        stage0 = [next(stream) for _ in sizes]
        stage1 = [next(stream) for _ in sizes]
        # stage 0 stops at its first graph of several members; stage 1 samples them all
        assert [seed for _, seed, _ in calls] == [stage0[sampled[0]]] + [stage1[j] for j in sampled]
        assert [draws for *_, draws in calls] == [reg.L // 2] + [reg.L] * 3

    def test_exhaustion_at_every_stage_names_the_last_L(self, monkeypatch):
        base = self.plain().L
        with pytest.raises(covering.SamplingExhausted, match=f"every draw count up to {8 * base}$"):
            self.run(monkeypatch, self.always_exhausted)
        # a prescribed count is one stage
        with pytest.raises(covering.SamplingExhausted, match="every draw count up to 64$"):
            self.run(monkeypatch, self.always_exhausted, draws=64)

    def test_bound_violation_is_not_retried(self, monkeypatch):
        with pytest.raises(BoundViolation):
            self.run(monkeypatch, lambda _: BoundViolation("trace-norm bound missed"))

    def test_bound_violation_is_not_a_probe_error_row(self, monkeypatch):
        calls = []

        def violate(*args, **kwargs):
            calls.append(args)
            raise BoundViolation("sampled operator misses the trace-norm bound")

        monkeypatch.setattr(covering, "_sample_in_span", violate)
        with pytest.raises(BoundViolation):
            resolution_probe(zero_plus_channel(), 4, 0.5, [self.P], seed=3, lambdas=(0.6,))
        assert len(calls) == 1


class TestRatioCertificate:
    """covering._sample_in_span decides an attempt from its draw counts where they suffice.

    Against the spectral test alone (oracles.spectral_walk) it accepts the
    same counts at the same attempt, or exhausts the same budget; an
    attempt the certificate accepted also passes the spectral test, with
    both slacks >= eps - beta and the l1 distance within the certificate's
    bound sum_j |c_j / L - p_j| tr C_j.
    """

    @staticmethod
    def decide(g, p, eps, tau, seed, draws) -> tuple:
        """How _sample_in_span decided ("certified", "spectral" or "exhausted") and after how
        many attempts, checked against the walk; every attempt but a certified last one was
        decided spectrally."""
        want = spectral_walk(g, p, eps, tau, seed, draws)
        if want is None:
            with pytest.raises(covering.SamplingExhausted):
                covering._sample_in_span(g, p, eps, tau, seed, draws)
            return "exhausted", covering.RETRY_SEEDS
        counts, ln, attempts, _, measured = covering._sample_in_span(g, p, eps, tau, seed, draws)
        want_counts, want_attempts, slacks, l1 = want
        assert (attempts, ln, counts.tolist()) == (want_attempts, draws, want_counts.tolist())
        if measured is not None:
            return "spectral", attempts
        q = linalg.check_distribution(p, g.num_edges)
        on = q > 0
        beta = float(np.abs(counts[on] / (draws * q[on]) - 1.0).max())
        assert beta <= eps
        assert min(slacks) >= eps - beta - linalg.PSD_TOL
        assert l1 <= float(np.abs(counts / draws - q) @ g.edge_traces()) + 1e-12
        return "certified", attempts

    def test_agrees_with_the_spectral_test_on_dense_graphs(self):
        seen = collections.Counter()
        for seed in range(6):
            g = covering.random_hypergraph(seed, 2 + seed % 3, 3 + seed % 4)
            p = random_distribution(make_rng(100 + seed), g.num_edges)
            for draws in (64, 400, 4_000, 40_000):
                seen[self.decide(g, p, 0.3, 0.3, seed, draws)[0]] += 1
        assert seen["certified"] and seen["spectral"]

    @pytest.mark.parametrize("channel, n", [(zero_plus_channel, 6),
                                            (lambda: channels.random_channel(11, 2, 2), 5)],
                             ids=["zero-plus", "mixed"])
    def test_agrees_with_the_spectral_test_on_orbit_graphs(self, monkeypatch, channel, n):
        # paper constants (eps = tau = lambda^2 / 1200): small L exhausts, the formula's L certifies
        types = type_graphs(monkeypatch, uniform_distribution(2, n), channel(), 0.6, 3)
        seen = collections.Counter()
        for seed, (*_, g, p, eps, tau) in enumerate(types):
            paper = math.floor(covering.draw_bound(g.eta, g.dim, eps, tau))
            for draws in (64, 10**6, paper):
                outcome, _ = self.decide(g, p, eps, tau, seed, draws)
                seen[outcome] += 1
                if draws == paper:
                    assert outcome == "certified"
        assert seen["exhausted"]

    def test_small_prescribed_draws_fall_back_to_the_spectral_decision(self, monkeypatch):
        # the CI's prescribed-draws config: at L = 64 beta > eps on most attempts,
        # and each of those gets the spectral test (which, on these linearly
        # independent rank-1 edges, accepts none the certificate refuses)
        kw = {"alpha": 3.0, "eps": 0.45, "tau": 0.45, "draws": 64}
        types = type_graphs(monkeypatch, uniform_distribution(2, 5), zero_plus_channel(), 0.6, 4, **kw)
        spectral = 0
        for *_, g, p, eps, tau in types:
            if g.num_edges > 1:
                for seed in range(4):
                    how, attempts = self.decide(g, p, eps, tau, seed, 64)
                    spectral += attempts - (how == "certified")
        assert spectral >= 20

    @pytest.mark.parametrize("channel, n", [(zero_plus_channel, 7),
                                            (lambda: channels.random_channel(11, 2, 2), 6)],
                             ids=["zero-plus", "mixed"])
    def test_paper_constants_need_no_spectral_test_and_no_stack(self, monkeypatch, channel, n):
        seen = []

        def spy(fn, name):
            def wrapped(a):
                # the innermost covering frame that asked for this eigensolve
                frame = sys._getframe(1)
                while frame is not None and frame.f_code.co_filename != covering.__file__:
                    frame = frame.f_back
                if frame is not None:
                    seen.append((name, frame.f_code.co_name))
                return fn(a)
            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name), name))
        for name in ("basis", "compressed"):
            monkeypatch.setattr(covering.QuantumHypergraph, name,
                                property(lambda g, name=name: pytest.fail(f"read {name}")))
        reg = resolvability_regularize(uniform_distribution(2, n), channel(), 0.6, seed=7)
        assert reg.details["constants_mode"] == "paper-constants"
        assert reg.details["stages_used"] == 1
        # every edge factor is an isometry (the mixture typical projectors
        # are the whole space): no eigensolve validates it, none samples
        assert seen == []

    def test_uniform_n10_working_memory(self):
        # n = 10 is the largest uniform zero-plus law under the dense-matrix
        # budget; with no edge stack the peak is the 1024 x 1024 output
        # difference and its trace norm (about 57 MiB measured; a stack of the
        # middle type alone took 256 MB before stacks were formed on first read)
        tracemalloc.start()
        try:
            reg = resolvability_regularize(uniform_distribution(2, 10), zero_plus_channel(), 0.6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reg.details["stages_used"] == 1
        assert peak < 96 * 2**20, f"{peak / 2**20:.1f} MiB"


def pure_channel(seed: int, inputs: int, dim: int) -> CQChannel:
    """Seeded channel of `inputs` random pure states on C^dim."""
    rng = make_rng(seed)
    vs = rng.normal(size=(inputs, dim)) + 1j * rng.normal(size=(inputs, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return CQChannel([np.outer(v, v.conj()) for v in vs])


def signed_law(seed: int, a: int, n: int, k: int, balanced: bool) -> dict:
    """k distinct length-n sequences with random signed weights, summing to 0 when balanced."""
    rng = make_rng(seed)
    picks = rng.choice(a**n, size=k, replace=False)
    c = rng.normal(size=k)
    if balanced:
        c -= c.mean()
    return {tuple(int(s) for s in np.unravel_index(i, (a,) * n)): float(w) for i, w in zip(picks, c)}


class TestOrbitSpectrum:
    """from_orbit reads an isometric factor's spectrum off its weights, else solves for it.

    The oracle is the dense graph of the reference edge M diag(w) M^dagger,
    validated by one eigvalsh: eta agrees to 1e-12, and the PSD and cap
    errors are the same.
    """

    @staticmethod
    def outcome(build):
        try:
            return build().eta
        except ValueError as exc:
            return str(exc)

    def solves(self, monkeypatch, factor, weights, perms) -> bool:
        """Check one factor against the oracle; return whether from_orbit ran an eigensolve."""
        dim = factor.shape[0]
        want = self.outcome(lambda: covering.QuantumHypergraph(
            dim, [(factor * weights) @ factor.conj().T], None))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)) or eigvalsh(m))
        got = self.outcome(lambda: covering.QuantumHypergraph.from_orbit(factor, weights, perms))
        monkeypatch.undo()
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12
        return bool(calls)

    @pytest.mark.parametrize("name", sorted(TestTypeOrbits.CASES))
    def test_agrees_with_eigvalsh_on_resolvability_factors(self, monkeypatch, name):
        channel, n, overrides, *_ = TestTypeOrbits.CASES[name]
        types = type_graphs(monkeypatch, uniform_distribution(2, n), channel(), 0.6, 3, **overrides)
        solved = [self.solves(monkeypatch, factor, weights, perms)
                  for factor, weights, perms, *_ in types]
        # at paper constants every mixture typical projector is the whole
        # space, so every factor is an isometry; the cut ranges are not
        assert any(solved) == (name == "cut-mixture-range")

    def test_agrees_with_eigvalsh_on_near_isometries(self, monkeypatch):
        rng = make_rng(31)
        solved = collections.Counter()
        for dim, r in [(6, 2), (6, 6), (4, 1), (3, 5)]:
            for noise in (0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-9, 1e-3):
                for top in (0.5, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 1.5):
                    q = haar_unitary(rng, max(dim, r))[:dim, :r]
                    factor = q + noise * (rng.normal(size=q.shape) + 1j * rng.normal(size=q.shape))
                    weights = rng.uniform(0.2, 1.0, size=r)
                    weights[rng.integers(r)] = top
                    perms = [rng.permutation(dim) for _ in range(2)]
                    solved[self.solves(monkeypatch, factor, weights, perms)] += 1
        assert solved[True] and solved[False]


class TestGramDistance:
    """With pure letters and |supp P| < d^n the measured distance is a k x k Gram problem."""

    # three letters in two dimensions and a repeated letter make product
    # vectors that depend linearly on each other: G is singular
    @pytest.mark.parametrize("channel", [zero_plus_channel(), pure_channel(41, 3, 2), pure_channel(42, 2, 3),
                                         CQChannel([PLUS, PLUS])],
                             ids=["zero-plus", "three-qubit-letters", "qutrit-letters", "repeated-letter"])
    def test_agrees_with_the_dense_trace_norm(self, channel):
        pure = identification._pure_letters(channel)
        a, d = channel.alphabet_size, channel.dim
        assert pure is not None
        for n in range(1, 9):
            if d**n > 2**8:
                break
            for seed in range(4):
                k = min(a**n, max(1, (d**n - 1) * (seed + 1) // 4))
                weights = signed_law(100 * n + seed, a, n, k, balanced=seed % 2 == 0)
                dense = linalg.trace_norm(channels.product_mixture(weights, channel))
                gram = identification._gram_trace_norm(pure, weights)
                assert abs(gram - dense) <= 1e-12 * max(1.0, dense), (n, k)

    def test_mixed_letters_are_not_pure(self):
        assert identification._pure_letters(channels.random_channel(11, 2, 2)) is None
        assert identification._pure_letters(identical_channel()) is None

    def test_pure_sparse_resolvability_solves_nothing_larger_than_k(self, monkeypatch):
        law = random_sparse_distribution(43, 2, 9, support=40)
        sizes = []

        def spy(fn):
            def wrapped(m):
                sizes.append(np.shape(m)[-1])
                return fn(m)
            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        monkeypatch.setattr(identification, "product_mixture",
                            lambda *args: pytest.fail("dense output difference formed"))
        reg = resolvability_regularize(law, zero_plus_channel(), 0.6, seed=44)
        monkeypatch.undo()
        assert sizes and max(sizes) <= len(law)
        signed = {xn: float(Fraction(w) - reg.sparse_distribution.get(xn, 0)) for xn, w in law.items()}
        dense = 0.5 * linalg.trace_norm(channels.product_mixture(signed, zero_plus_channel()))
        assert abs(reg.measured_distance - dense) <= 1e-12

    @pytest.mark.parametrize("law, channel", [
        (uniform_distribution(2, 5), zero_plus_channel()),
        (random_sparse_distribution(45, 2, 5, support=12), channels.random_channel(11, 2, 2)),
    ], ids=["full-support", "mixed-letters"])
    def test_full_support_and_mixed_letters_stay_dense(self, monkeypatch, law, channel):
        calls = []
        mixture = identification.product_mixture
        monkeypatch.setattr(identification, "product_mixture",
                            lambda *args: calls.append(1) or mixture(*args))
        resolvability_regularize(law, channel, 0.6, seed=46)
        assert calls == [1]


class TestStackRelease:
    CONFIG = {"command": "resolvability", "seed": 4, "params": {
        "channel": {"kind": "random", "dim": 2, "inputs": 2}, "P": {"kind": "uniform", "n": 8},
        "lambda": 0.6, "draws": 1000, "eps": 0.45, "tau": 0.45, "alpha": 3}}

    def test_sampled_orbit_stacks_are_released(self, monkeypatch):
        # mixed letters, uniform n = 8, draws = 1000, eps = tau = 0.45,
        # alpha = 3: the certificate leaves attempts to the spectral test,
        # which forms each type's edge stack; each is dropped once its graph
        # is sampled, so the stacks of all types are never alive together
        # (196 MiB when they were, 84 MiB measured with one at a time)
        built, read = [], []
        from_orbit = covering.QuantumHypergraph.from_orbit.__func__
        compressed = covering.QuantumHypergraph.compressed

        def record_orbit(cls, factor, weights, perms):
            built.append(from_orbit(cls, factor, weights, perms))
            return built[-1]

        def record_read(g):
            read.append(id(g))
            return compressed.fget(g)

        monkeypatch.setattr(covering.QuantumHypergraph, "from_orbit", classmethod(record_orbit))
        monkeypatch.setattr(covering.QuantumHypergraph, "compressed", property(record_read))
        tracemalloc.start()
        try:
            results = cli.run(self.CONFIG).results
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results["L"] == 1000
        assert len(set(read)) >= 2
        assert all("_span" not in vars(g) for g in built if g.num_edges > 1)
        assert peak < 128 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestTypeClassSharing:
    def test_one_conditional_projector_per_active_type(self, monkeypatch):
        calls = []
        build = identification.conditional_typical_projectors

        def spy(channel, sequences, alpha):
            calls.extend(tuple(xn) for xn in sequences)
            return build(channel, sequences, alpha)

        monkeypatch.setattr(identification, "conditional_typical_projectors", spy)
        dist = random_sparse_distribution(5, 2, 6, support=20)
        reg = resolvability_regularize(dist, identical_channel(), 0.6, seed=3)
        active = [row["type"] for row in reg.per_type_details if row["active"]]
        assert len(calls) == len(active) < len(dist)
        # each built on its type's sorted sequence
        assert sorted(calls) == sorted(
            tuple(x for x, c in enumerate(t) for _ in range(c)) for t in active
        )

    def test_every_factor_basis_is_checked_once_where_it_is_made(self, monkeypatch):
        made, checked, built, batches = [], [], [], []
        make, check = channels._factor_systems, channels._check_factors

        def spy_make(states):
            batches.append(len(checked))
            systems = make(states)
            made.extend(system[1] for system in systems)
            return systems

        def spy_check(bases, values, letters):
            checked.extend(bases)
            check(bases, values, letters)

        def record(build):
            def wrapped(*args):
                projs = build(*args)
                built.extend(projs)
                return projs
            return wrapped

        monkeypatch.setattr(channels, "_factor_systems", spy_make)
        monkeypatch.setattr(channels, "_check_factors", spy_check)
        for name in ("typical_projectors", "conditional_typical_projectors"):
            monkeypatch.setattr(identification, name, record(getattr(identification, name)))
        ch = channels.random_channel(11, 2, 2)
        resolvability_regularize(uniform_distribution(2, 6), ch, 0.6, seed=3)
        # one eigensystem per letter and one per type's mixture, each checked once
        mixtures = sum(proj.kind == "unconditional" for proj in built)
        assert mixtures == 7 and len(made) == ch.alphabet_size + mixtures
        # the mixtures' batch, then the letters', each checked as a whole where it is made
        assert batches == [0, mixtures]
        assert len(checked) == len(made)
        assert all(np.array_equal(c, b) for c, b in zip(checked, made))
        assert {id(b) for proj in built for b in proj.factor_bases} <= {id(b) for b in made}

    def test_many_type_law_memory_ceiling(self):
        # one sequence per type of n = 8 over 4 inputs: all 165 types are
        # active.  The law peaks at 169.7 MiB, nearly all of it the types'
        # edge factors; both projector batches are built before the per-type
        # loop, and holding every type's pair (with the digits it caches)
        # until the loop ends would add 6.7 MiB.
        ch = channels.random_channel(5, 4, 2)
        rng = make_rng(7)
        types = type_enumerate(8, 4)
        law = {}
        for t in types:
            ordered = [x for x, c in enumerate(t.counts) for _ in range(c)]
            law[tuple(int(x) for x in rng.permutation(ordered))] = 1.0 / len(types)
        tracemalloc.start()
        try:
            reg = resolvability_regularize(law, ch, 0.6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(row["active"] for row in reg.per_type_details) == len(types) == 165
        assert peak < 172 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_validates_the_input_law_once(self, monkeypatch):
        calls = []
        check = identification.check_sequence_distribution

        def spy(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(identification, "check_sequence_distribution", spy)
        resolvability_regularize(uniform_distribution(2, 3), zero_plus_channel(), 0.6, seed=4)
        assert len(calls) == 1

    def test_no_dense_tensor_output(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense per-atom output built")

        monkeypatch.setattr(channels, "tensor_output", refuse)
        monkeypatch.setattr(identification, "tensor_output", refuse)
        dist = random_sparse_distribution(9, 2, 5, support=12)
        reg = resolvability_regularize(dist, zero_plus_channel(), 0.6, seed=5)
        assert 0.0 < reg.measured_distance <= 1.0
        code = random_qid_code(6, zero_plus_channel(), 3, 2, 3)
        lambda1, lambda2, _ = evaluate_qid_code(code, zero_plus_channel())
        assert 0.0 <= lambda1 <= 1.0 and 0.0 <= lambda2 <= 1.0

    def test_equal_laws_measure_exactly_zero(self):
        ch = CQChannel([random_density(make_rng(s), 2) for s in (7, 8)])
        for xn in [(0, 1, 1), (1, 0, 1, 0)]:
            reg = resolvability_regularize({xn: 1.0}, ch, 0.6, seed=6)
            assert distributions_identical(reg.sparse_distribution, {xn: 1.0})
            assert reg.measured_distance == 0.0


class TestApproximation:
    def _orthogonal_code(self):
        return QIDCode(
            1,
            [({(0,): 1.0}, np.diag([1.0, 0.0])), ({(1,): 1.0}, np.diag([0.0, 1.0]))],
        )

    def test_identity_regularization_keeps_errors(self):
        channel = zero_plus_channel()
        code = QIDCode(
            2,
            [
                ({(0, 1): 0.5, (1, 0): 0.5}, random_effect(make_rng(7), 4)),
                ({(1, 1): 1.0}, random_effect(make_rng(8), 4)),
            ],
        )
        regs = [
            RegularizationResult(
                sparse_distribution={xn: Fraction(w) for xn, w in dist.items()},
                measured_distance=0.0,
                K=4,
                L=4,
                per_type_details=(),
                certified=True,
            )
            for dist, _ in code.entries
        ]
        lambda1, lambda2, _ = evaluate_qid_code(code, channel)
        lambda1_bar, lambda2_bar = approximation_preserves_id(code, channel, regs)
        assert lambda1_bar == lambda1
        assert lambda2_bar == lambda2

    def test_perturbed_orthogonal_code(self):
        channel = embed_classical(np.eye(2))
        code = self._orthogonal_code()
        regs = [
            RegularizationResult(
                sparse_distribution={(0,): Fraction(9, 10), (1,): Fraction(1, 10)},
                measured_distance=0.1,
                K=2,
                L=2,
                per_type_details=(),
                certified=True,
            ),
            RegularizationResult(
                sparse_distribution={(1,): Fraction(1)},
                measured_distance=0.0,
                K=2,
                L=2,
                per_type_details=(),
                certified=True,
            ),
        ]
        lambda1_bar, lambda2_bar = approximation_preserves_id(code, channel, regs)
        assert lambda1_bar == pytest.approx(0.1, abs=1e-12)
        assert lambda2_bar == pytest.approx(0.1, abs=1e-12)

    def test_end_to_end_pipeline_output(self):
        channel = zero_plus_channel()
        entries = []
        for i in range(2):
            dist = random_sparse_distribution(61 + i, 2, 3, support=5)
            entries.append((dist, random_effect(make_rng(200 + i), 8)))
        code = QIDCode(3, entries)
        regs = [
            resolvability_regularize(dist, channel, 0.6, seed=300 + i)
            for i, (dist, _) in enumerate(code.entries)
        ]
        lambda1, lambda2, _ = evaluate_qid_code(code, channel)
        lambda1_bar, lambda2_bar = approximation_preserves_id(code, channel, regs)
        slack = max(reg.measured_distance for reg in regs)
        assert lambda1_bar <= lambda1 + slack + 1e-9
        assert lambda2_bar <= lambda2 + slack + 1e-9

    def test_mismatched_lengths(self):
        code = self._orthogonal_code()
        with pytest.raises(ValueError, match="one regularization per"):
            approximation_preserves_id(code, embed_classical(np.eye(2)), [])

    def test_violation_detected(self):
        channel = embed_classical(np.eye(2))
        code = QIDCode(1, [({(0,): 1.0}, np.diag([1.0, 0.0]))])
        lying_reg = RegularizationResult(
            sparse_distribution={(1,): Fraction(1)},
            measured_distance=0.0,  # claims zero distance while moving all mass
            K=2,
            L=2,
            per_type_details=(),
            certified=False,
        )
        with pytest.raises(BoundViolation, match="degraded"):
            approximation_preserves_id(code, channel, [lying_reg])


class TestDistinctness:
    def test_exact_equality_semantics(self):
        assert distributions_identical({(0, 1): 0.5, (1, 0): 0.5}, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        assert not distributions_identical(
            {(0,): Fraction(1, 2), (1,): Fraction(1, 2)},
            {(0,): Fraction(1, 2) + Fraction(1, 1000), (1,): Fraction(1, 2) - Fraction(1, 1000)},
        )
        assert distributions_identical({(0,): 1.0, (1,): 0.0}, {(0,): Fraction(1)})

    def test_pipeline_outputs_distinguishable(self):
        channel = zero_plus_channel()
        first = resolvability_regularize(
            random_sparse_distribution(81, 2, 3, support=5), channel, 0.6, seed=400
        )
        second = resolvability_regularize(
            random_sparse_distribution(82, 2, 3, support=5), channel, 0.6, seed=400
        )
        assert not distributions_identical(first.sparse_distribution, second.sparse_distribution)


class TestResolutionProbe:
    def test_identical_channel_needs_one_atom(self):
        report = resolution_probe(
            identical_channel(),
            2,
            eps=0.25,
            candidate_Ps=[uniform_distribution(2, 2), {(0, 1): 1.0}],
            seed=500,
        )
        assert all(entry["minimal_support"] == 1 for entry in report)
        assert all(entry["atom_distance"] <= 1e-9 for entry in report)

    def test_point_mass_needs_one_atom(self):
        report = resolution_probe(
            zero_plus_channel(), 3, eps=0.1, candidate_Ps=[{(0, 1, 0): 1.0}], seed=501
        )
        assert report[0]["minimal_support"] == 1
        assert report[0]["atom_sequence"] == [0, 1, 0]

    def test_uniform_candidate_grid(self):
        report = resolution_probe(
            zero_plus_channel(), 4, eps=0.5, candidate_Ps=[uniform_distribution(2, 4)], seed=502
        )
        entry = report[0]
        assert {row["lambda"] for row in entry["rows"]} == {0.9, 0.75, 0.6, 0.45, 0.3}
        qualifying = [row for row in entry["rows"] if row.get("qualifies")]
        assert qualifying, "paper constants should certify at desk scale here"
        feasible = [row["support"] for row in qualifying]
        if entry["atom_distance"] <= 0.5:
            feasible.append(1)
        assert entry["minimal_support"] == min(feasible)

    def test_monotone_in_eps(self):
        channel = zero_plus_channel()
        candidates = [uniform_distribution(2, 3)]
        supports = []
        for eps in (0.25, 0.5, 1.0):
            report = resolution_probe(channel, 3, eps=eps, candidate_Ps=candidates, seed=503)
            minimal = report[0]["minimal_support"]
            supports.append(math.inf if minimal is None else minimal)
        assert supports[0] >= supports[1] >= supports[2]

    def test_validation(self):
        with pytest.raises(ValueError, match="eps"):
            resolution_probe(zero_plus_channel(), 2, eps=0.0, candidate_Ps=[], seed=1)
        with pytest.raises(ValueError, match="too large"):
            resolution_probe(zero_plus_channel(), 13, eps=0.5, candidate_Ps=[], seed=1)
