import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from opcover import channels, linalg
from opcover.channels import (
    CQChannel,
    EmpiricalDistribution,
    capacity,
    conditional_typical_projector,
    conditional_typical_projectors,
    cross_typical_mass,
    embed_classical,
    output_state,
    range_permutation,
    product_mixture,
    tensor_output,
    type_enumerate,
    typical_projector,
    typical_projectors,
    typical_set,
)
from opcover.concentration import OperatorRV
from opcover.covering import QuantumHypergraph
from opcover.identification import QIDCode
from opcover.rng import make_rng, random_density, random_distribution, spawn_seeds

from oracles import (blahut_arimoto_capacity, classical_capacity_oracle,
                     conditional_mask_all_factors, dense_mixture, dense_projector, holevo_information,
                     per_state_conditional_typical_projector, per_state_typical_projector,
                     random_state, range_basis, range_permutation_one_sequence, type_class_size,
                     typical_set_by_loop)

KET0 = np.diag([1.0, 0.0])
KET1 = np.diag([0.0, 1.0])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def mass_by_types(class_masses, n, alpha):
    """Typical mass summed per occupation pattern (multinomial route)."""
    total = 0.0
    masses = list(class_masses)
    for t in type_enumerate(n, len(masses)):
        ok = True
        for q, k in zip(masses, t.counts):
            if abs(k - n * q) > alpha * math.sqrt(n * max(q * (1.0 - q), 0.0)):
                ok = False
                break
        if ok:
            total += type_class_size(t) * math.prod(
                q**k for q, k in zip(masses, t.counts)
            )
    return total


class TestCQChannel:
    def test_validates_states(self):
        with pytest.raises(ValueError):
            CQChannel(np.array([[[0.5, 0.0], [0.0, 0.4]]]))  # trace 0.9
        with pytest.raises(ValueError):
            CQChannel(np.array([[[1.5, 0.0], [0.0, -0.5]]]))  # not PSD
        with pytest.raises(ValueError):
            CQChannel(np.zeros((2, 2, 3)))
        # the batched projector builder takes stacks only, as the channel does
        for shape in [(2, 2), (2, 2, 3)]:
            with pytest.raises(ValueError, match="expected a stack of square matrices"):
                typical_projectors(np.zeros(shape), 2, 1.0)

    def test_shape_and_access(self):
        ch = CQChannel([KET0, PLUS])
        assert ch.alphabet_size == 2
        assert ch.dim == 2
        assert np.allclose(ch.state(1), PLUS)

    def test_commutation_probe(self):
        assert embed_classical(np.eye(2)).is_commuting()
        assert not CQChannel([KET0, PLUS]).is_commuting()


class TestEmbedClassical:
    def test_identity_channel(self):
        ch = embed_classical(np.eye(2))
        assert np.allclose(ch.states[0], KET0)
        assert np.allclose(ch.states[1], KET1)

    def test_binary_symmetric(self):
        ch = embed_classical([[0.89, 0.11], [0.11, 0.89]])
        assert np.allclose(ch.states[0], np.diag([0.89, 0.11]))
        assert np.allclose(ch.states[1], np.diag([0.11, 0.89]))

    def test_outputs_pairwise_commute(self):
        rng = make_rng(11)
        w = rng.random((4, 3))
        w = w / w.sum(axis=1, keepdims=True)
        ch = embed_classical(w)
        for a, b in itertools.combinations(ch.states, 2):
            assert linalg.commutator_norm(a, b) == 0.0

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            embed_classical([[0.6, 0.3], [0.5, 0.5]])
        with pytest.raises(ValueError, match="negative"):
            embed_classical([[1.2, -0.2], [0.5, 0.5]])


class TestOutputs:
    def test_point_mass(self):
        ch = CQChannel([KET0, PLUS])
        assert np.allclose(output_state([0.0, 1.0], ch), PLUS)

    def test_uniform_over_identical_states(self):
        ch = CQChannel([PLUS, PLUS])
        assert np.allclose(output_state([0.5, 0.5], ch), PLUS)

    def test_tensor_matches_direct_kronecker(self):
        ch = CQChannel([KET0, PLUS])
        got = tensor_output((0, 1), ch)
        assert got.shape == (4, 4)
        assert np.allclose(got, np.kron(KET0, PLUS), atol=0.0)
        assert math.isclose(float(np.trace(got).real), 1.0, abs_tol=1e-12)

    def test_tensor_size_guard(self):
        ch = CQChannel([np.eye(4) / 4.0])
        with pytest.raises(ValueError, match="exceeds"):
            tensor_output([0] * 7, ch)

    def test_sequence_validation(self):
        ch = CQChannel([KET0, PLUS])
        with pytest.raises(ValueError, match="symbols"):
            tensor_output((0, 2), ch)
        with pytest.raises(ValueError, match="nonempty"):
            tensor_output((), ch)


class TestProductMixture:
    @pytest.mark.parametrize("a, d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_signed_weights_match_dense_sum(self, a, d):
        rng = make_rng(31 + 10 * a + d)
        ch = channels.random_channel(int(rng.integers(1 << 30)), a, d)
        for n in range(1, 6):
            space = list(itertools.product(range(a), repeat=n))
            picks = rng.choice(len(space), size=min(len(space), 12), replace=False)
            weights = {space[i]: float(rng.normal()) for i in picks}
            got = product_mixture(weights, ch)
            assert got.shape == (d**n, d**n)
            assert np.abs(got - dense_mixture(weights, ch)).max() <= 1e-12, (a, d, n)

    def test_single_atom_is_tensor_output_exactly(self):
        ch = channels.random_channel(5, 3, 2)
        for xn in [(2,), (0, 1), (1, 2, 0, 2), (2, 2, 1, 0, 1)]:
            assert np.array_equal(product_mixture({xn: 1.0}, ch), tensor_output(xn, ch))

    def test_rejects_mixed_lengths_and_caps_before_allocating(self, monkeypatch):
        # symbol and size domains are listed in test_domains.CASES
        ch = CQChannel([KET0, PLUS])
        with pytest.raises(ValueError, match="one length"):
            product_mixture({(0, 1): 0.5, (1,): 0.5}, ch)
        monkeypatch.setattr(linalg, "kron", lambda *args: pytest.fail("allocated past the cap"))
        with pytest.raises(linalg.DomainError, match="exceeds"):
            product_mixture({(0,) * 13: 1.0}, ch)


class TestPermutedRange:
    CHANNELS = {
        "zero-plus": lambda: CQChannel([KET0, PLUS]),
        "random-qubit": lambda: channels.random_channel(17, 2, 2),
        "three-letter": lambda: channels.random_channel(23, 3, 2),
    }

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_matches_direct_build_bit_for_bit(self, name):
        ch = self.CHANNELS[name]()
        partial = 0
        for n in range(1, 8):
            refs, mixes = {}, {}
            for xn in itertools.product(range(ch.alphabet_size), repeat=n):
                key = tuple(sorted(xn))
                if key not in refs:
                    refs[key] = conditional_typical_projector(ch, key, 1.0)
                    t = EmpiricalDistribution.from_sequence(key, ch.alphabet_size)
                    mixes[key] = typical_projector(output_state(t.probabilities(), ch), n, 1.0)
                ref, mix = refs[key], mixes[key]
                direct = conditional_typical_projector(ch, xn, 1.0)
                # xn's conditional range, its factors moved to key's positions,
                # is ref's: the digits agree bit for bit, probs to rounding
                source = np.empty(n, dtype=int)
                source[np.argsort(xn, kind="stable")] = np.argsort(key, kind="stable")
                moved = np.empty_like(direct.digits)
                moved[source] = direct.digits
                keys = np.ravel_multi_index(moved, ref.factor_dims)
                assert np.array_equal(np.sort(keys), ref.mask), xn
                perm = np.searchsorted(ref.mask, keys)
                assert np.array_equal(ref.digits[:, perm][source], direct.digits), xn
                assert np.allclose(ref.probs[perm], direct.probs, rtol=1e-14, atol=0.0), xn
                # an unconditional range is invariant: perm permutes it
                (perm,) = range_permutation(mix, [xn], key)
                assert np.array_equal(np.sort(perm), np.arange(mix.rank)), xn
                assert np.array_equal(mix.digits[:, perm][source], mix.digits), xn
                partial += 0 < direct.rank < direct.dim and 0 < mix.rank < mix.dim
        assert partial > 0  # the windows cut, so the permutation is exercised

    def test_rejects_a_projector_of_another_type(self):
        ch = CQChannel([KET0, PLUS])
        proj = conditional_typical_projector(ch, (0, 0, 1), 1.0)
        with pytest.raises(ValueError, match="rearrangement"):
            range_permutation(proj, [(0, 0, 1)], (0, 1, 1))
        with pytest.raises(ValueError, match="rearrangement"):
            range_permutation(typical_projector(PLUS, 2, 1.0), [(0, 0, 1)], (0, 1, 0))
        # one member of the batch off the type is enough
        with pytest.raises(ValueError, match="rearrangement"):
            range_permutation(proj, [(0, 1, 0), (0, 1, 1)], (0, 0, 1))
        # a conditional range is not invariant: moved, it leaves itself
        with pytest.raises(ValueError, match="leaves the target range"):
            range_permutation(proj, [(0, 0, 1)], (0, 1, 0))
        with pytest.raises(ValueError, match="leaves the target range"):
            range_permutation(proj, [(1, 0, 0), (0, 0, 1)], (0, 0, 1))

    def test_batch_matches_the_per_sequence_relabeling(self):
        regimes = set()
        channel_list = (channels.random_channel(17, 2, 2), channels.random_channel(23, 3, 2))
        for ch, alpha in itertools.product(channel_list, (30.0, 1.0)):
            a = ch.alphabet_size
            for n in range(1, 7):
                for t in type_enumerate(n, a):
                    ys = tuple(x for x, c in enumerate(t.counts) for _ in range(c))
                    members = sorted(set(itertools.permutations(ys)))
                    mix = typical_projector(output_state(t.probabilities(), ch), n, alpha)
                    perm = range_permutation(mix, members, ys)
                    assert perm.shape == (len(members), mix.rank) and perm.dtype == np.intp
                    for row, xn in zip(perm, members):
                        assert np.array_equal(row, range_permutation_one_sequence(mix, xn, ys)), xn
                    regimes.add("full" if mix.rank == mix.dim else "cut" if mix.rank else "empty")
        assert {"full", "cut"} <= regimes


class TestHolevo:
    def test_identical_states_give_zero(self):
        ch = CQChannel([PLUS, PLUS, PLUS])
        assert holevo_information([0.2, 0.3, 0.5], ch) == 0.0

    def test_orthogonal_pure_states_give_one_bit(self):
        ch = CQChannel([KET0, KET1])
        assert math.isclose(holevo_information([0.5, 0.5], ch), 1.0, abs_tol=1e-12)

    def test_two_pure_states_closed_form(self):
        # uniform mixture of |0> and |+| has eigenvalues (1 +- 1/sqrt 2)/2
        ch = CQChannel([KET0, PLUS])
        top = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
        expected = binary_entropy(top)
        assert math.isclose(expected, 0.6008760366, abs_tol=1e-9)
        assert math.isclose(holevo_information([0.5, 0.5], ch), expected, abs_tol=1e-12)

    def test_concave_in_input_law(self):
        rng = make_rng(23)
        ch = CQChannel([random_density(rng, 3) for _ in range(3)])
        for _ in range(200):
            p1 = random_distribution(rng, 3)
            p2 = random_distribution(rng, 3)
            lam = float(rng.random())
            mixed = holevo_information(lam * p1 + (1.0 - lam) * p2, ch)
            split = lam * holevo_information(p1, ch) + (1.0 - lam) * holevo_information(p2, ch)
            assert mixed >= split - 1e-9


class TestCapacity:
    def test_single_input_channel(self):
        sol = capacity(CQChannel([PLUS]))
        assert sol.bits == 0.0
        assert sol.gap <= 1e-9
        assert sol.iterations == 1

    def test_binary_symmetric_closed_form(self):
        ch = embed_classical([[0.89, 0.11], [0.11, 0.89]])
        sol = capacity(ch, tol=1e-9)
        assert math.isclose(sol.bits, 1.0 - binary_entropy(0.11), abs_tol=1e-6)
        assert np.allclose(sol.input_distribution, [0.5, 0.5], atol=1e-6)

    def test_two_pure_states_grid_oracle(self):
        ch = CQChannel([KET0, PLUS])
        best = 0.0
        for p in np.linspace(0.0, 1.0, 2001):
            mix = p * KET0 + (1.0 - p) * PLUS
            # closed-form eigenvalues of a 2x2 Hermitian matrix
            tr = float(np.trace(mix).real)
            det = float(np.linalg.det(mix).real)
            top = (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0))) / 2.0
            best = max(best, linalg.shannon_entropy([top, 1.0 - top]))
        sol = capacity(ch, tol=1e-9)
        assert math.isclose(sol.bits, best, abs_tol=1e-3)
        assert math.isclose(sol.bits, 0.6008760366, abs_tol=1e-6)
        assert np.allclose(sol.input_distribution, [0.5, 0.5], atol=1e-3)

    def test_z_channel_against_classical_oracle(self):
        w = np.array([[1.0, 0.0], [0.5, 0.5]])
        sol = capacity(embed_classical(w), tol=1e-9)
        assert math.isclose(sol.bits, classical_capacity_oracle(w), abs_tol=1e-6)
        # known closed form for this erasure pattern
        assert math.isclose(sol.bits, math.log2(1.25), abs_tol=1e-6)

    def test_matches_classical_fixed_point_on_random_channels(self):
        rng = make_rng(31)
        for trial in range(20):
            size = 2 if trial % 2 == 0 else 3
            w = rng.random((size, size)) + 0.1
            w = w / w.sum(axis=1, keepdims=True)
            sol = capacity(embed_classical(w), tol=1e-8)
            assert math.isclose(sol.bits, classical_capacity_oracle(w), abs_tol=1e-6)

    def test_certificate_consistency(self):
        ch = CQChannel([KET0, PLUS])
        sol = capacity(ch, tol=1e-9)
        assert sol.gap <= 1e-9
        assert math.isclose(
            holevo_information(sol.input_distribution, ch), sol.bits, abs_tol=1e-9
        )

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            capacity(CQChannel([PLUS]), tol=0.0)

    def test_letter_in_kernel_has_infinite_divergence(self):
        # vertex p = (1, 0): sigma = |0><0| and |+> has weight 1/2 in ker sigma
        ch = CQChannel([KET0, PLUS])
        div = channels._divergences_from_output(ch, [0.0, 0.0], KET0)[0]
        assert div.tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("kind", ["qubit", "qutrit", "near-duplicate", "pure-pair"])
    def test_matches_blahut_arimoto_oracle(self, kind):
        rng = make_rng(53)
        for trial in range(6):
            dim = 2 + trial % 2
            if kind == "pure-pair":
                states = [random_state(rng, dim) for _ in range(2)]
            else:
                dim = {"qubit": 2, "qutrit": 3}.get(kind, dim)
                states = [random_density(rng, dim) for _ in range(2 + trial % 3)]
            if kind == "near-duplicate":
                # the first letter pulled 0.02 of the way to the maximally mixed state
                states.append(0.98 * states[0] + 0.02 * np.eye(dim) / dim)
            sol = capacity(CQChannel(states), tol=1e-9)
            oracle = blahut_arimoto_capacity(states, tol=1e-9)
            assert sol.gap <= 1e-9
            assert sol.bits >= oracle - 1e-12
            assert abs(sol.bits - oracle) <= 1e-9

    def test_near_duplicate_rows_certify_in_few_steps(self):
        # criterion 7's instance 9: rows 1 and 2 nearly coincide and the
        # optimum puts no weight on row 1, which plain Blahut-Arimoto
        # took 80,399 rounds to squeeze out
        rng = make_rng(spawn_seeds(970, 20)[9])
        rows = np.stack([random_distribution(rng, 2) for _ in range(3)])
        sol = capacity(embed_classical(rows), tol=1e-9)
        assert sol.gap <= 1e-9
        assert sol.iterations - 1 <= 10  # Newton steps after the uniform start
        assert sol.input_distribution[1] == 0.0

    def test_tol_below_double_precision_fails_fast(self):
        # no float gap reaches 1e-300 except by landing on <= 0; a stalled
        # ascent must raise well before max_iter would stop it
        rng = make_rng(59)
        outcomes = set()
        for _ in range(12):
            ch = CQChannel([random_density(rng, 2) for _ in range(3)])
            try:
                sol = capacity(ch, tol=1e-300, max_iter=50)
            except RuntimeError as err:
                assert "stalled" in str(err)
                outcomes.add("stalled")
            else:
                assert sol.gap <= 1e-300
                outcomes.add("certified")
        assert "stalled" in outcomes


class TestTypes:
    def test_enumerate_two_of_two(self):
        types = type_enumerate(2, 2)
        assert [t.counts for t in types] == [(0, 2), (1, 1), (2, 0)]

    def test_count_four_of_three(self):
        types = type_enumerate(4, 3)
        assert len(types) == 15
        assert len(types) == math.comb(6, 2)
        assert len(types) <= 5**3
        assert len({t.counts for t in types}) == 15
        assert all(sum(t.counts) == 4 for t in types)

    def test_class_sizes(self):
        assert type_class_size(EmpiricalDistribution(2, (1, 1))) == 2
        assert type_class_size(EmpiricalDistribution(4, (2, 2))) == 6
        assert type_class_size(EmpiricalDistribution(10, (10, 0))) == 1
        t = EmpiricalDistribution(9, (2, 3, 4))
        assert type_class_size(t) == math.factorial(9) // (2 * 6 * 24)

    def test_class_sizes_cover_sequence_space(self):
        n, a = 5, 3
        assert sum(type_class_size(t) for t in type_enumerate(n, a)) == a**n

    def test_from_sequence(self):
        t = EmpiricalDistribution.from_sequence((0, 1, 1, 2), 4)
        assert t.counts == (1, 2, 1, 0)
        assert np.allclose(t.probabilities(), [0.25, 0.5, 0.25, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to"):
            EmpiricalDistribution(3, (1, 1, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalDistribution(1, (2, -1))
        with pytest.raises(ValueError, match="positive"):
            EmpiricalDistribution(0, (0,))

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="cap"):
            type_enumerate(40, 20)


class TestTypicalSet:
    def test_huge_alpha_gives_full_set(self):
        got = typical_set([0.3, 0.7], 4, 1e6)
        assert len(got) == 16

    def test_point_mass_pins_the_sequence(self):
        for alpha in (0.0, 3.0):
            got = typical_set([1.0, 0.0], 5, alpha)
            assert got == {(0, 0, 0, 0, 0)}

    def test_zero_alpha_odd_length_is_empty(self):
        assert typical_set([0.5, 0.5], 3, 0.0) == set()

    def test_against_direct_count_oracle(self):
        p = np.array([0.75, 0.25])
        n, alpha = 8, 1.0
        got = typical_set(p, n, alpha)
        oracle = set()
        for seq in itertools.product(range(2), repeat=n):
            ok = all(
                abs(seq.count(x) - n * p[x])
                <= alpha * math.sqrt(n) * math.sqrt(p[x] * (1 - p[x]))
                for x in range(2)
            )
            if ok:
                oracle.add(seq)
        assert got == oracle
        # count of zeros must land in {5, 6, 7}
        assert len(got) == math.comb(8, 5) + math.comb(8, 6) + math.comb(8, 7)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="sequence space"):
            typical_set([0.25] * 4, 11, 1.0)

    def test_matches_the_sequence_loop(self):
        # seeded laws (every fifth one a point mass) at every window width
        rng = make_rng(97)
        for case in range(300):
            a, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            p = random_distribution(rng, a)
            if case % 5 == 0:
                p = np.eye(a)[rng.integers(a)]
            alpha = (0.0, 0.5, 1.0, 1.7, 3.0, 1e6)[case % 6]
            assert typical_set(p, n, alpha) == typical_set_by_loop(p, n, alpha), (a, n, alpha, p)

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_chunked_members_match_the_sequence_loop(self, monkeypatch, chunk):
        # chunks of 1 and 5 mask entries: the tuples are cut at every place
        monkeypatch.setattr(channels, "MEMBER_CHUNK", chunk)
        rng = make_rng(101)
        for case in range(60):
            a, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            p = random_distribution(rng, a)
            alpha = (0.5, 1.0, 1.7, 3.0, 1e6)[case % 5]
            assert typical_set(p, n, alpha) == typical_set_by_loop(p, n, alpha), (a, n, alpha, p)

    def test_memory_is_bounded_at_the_size_cap(self):
        # the returned 523,906 tuples alone hold about 112 MB; n full-length
        # digit arrays and their lists took the peak to 271 MB
        tracemalloc.start()
        try:
            got = typical_set([0.5, 0.5], 19, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 523_906
        assert peak <= 160 * 2**20


class TestTypicalProjector:
    def test_huge_alpha_gives_identity(self):
        proj = typical_projector(np.diag([0.6, 0.4]), 3, 1e9)
        assert np.array_equal(dense_projector(proj), np.eye(8))
        assert proj.rank == 8

    def test_pure_state_gives_rank_one(self):
        proj = typical_projector(PLUS, 3, 2.0)
        ref = linalg.kron_all([PLUS] * 3)
        assert proj.rank == 1
        assert np.allclose(dense_projector(proj), ref, atol=1e-12)
        assert math.isclose(proj.trace_mass, 1.0, abs_tol=1e-12)

    def test_frozen_binomial_example(self):
        # counts of the 3/4 eigenvalue must land in 5..10
        proj = typical_projector(np.diag([0.75, 0.25]), 10, 2.0)
        expected = Fraction(0)
        for k in range(5, 11):
            expected += math.comb(10, k) * Fraction(3, 4) ** k * Fraction(1, 4) ** (10 - k)
        assert math.isclose(proj.trace_mass, float(expected), abs_tol=1e-12)
        assert proj.trace_mass >= 0.5 == proj.mass_bound
        assert proj.rank == sum(math.comb(10, k) for k in range(5, 11))

    def test_degenerate_eigenvalues_merge(self):
        # maximally mixed qubit: one merged class, every sequence typical
        proj = typical_projector(np.eye(2) / 2.0, 2, 0.0)
        assert np.array_equal(dense_projector(proj), np.eye(4))
        assert proj.trace_mass == 1.0

    def test_degenerate_subspace_off_basis(self):
        rng = make_rng(41)
        from opcover.rng import haar_unitary

        u = haar_unitary(rng, 3)
        rho = u @ np.diag([0.4, 0.4, 0.2]) @ u.conj().T
        proj = typical_projector(rho, 3, 1.5)
        assert len(proj.details["class_masses"]) == 2
        assert np.allclose(proj.details["class_masses"], [0.2, 0.8], atol=1e-9)
        oracle = mass_by_types(proj.details["class_masses"], 3, 1.5)
        assert math.isclose(proj.trace_mass, oracle, rel_tol=1e-9, abs_tol=1e-12)

    def test_unitary_covariance(self):
        rng = make_rng(43)
        from opcover.rng import haar_unitary

        diag = np.diag([0.7, 0.2, 0.1])
        u = haar_unitary(rng, 3)
        a = typical_projector(diag, 3, 1.0)
        b = typical_projector(u @ diag @ u.conj().T, 3, 1.0)
        assert a.rank == b.rank
        assert math.isclose(a.trace_mass, b.trace_mass, abs_tol=1e-10)

    def test_mass_bound_and_invariants_on_random_states(self):
        rng = make_rng(47)
        for dim, n, alpha in [(2, 4, 1.0), (2, 6, 2.0), (3, 4, 1.5), (4, 3, 2.0)]:
            rho = random_density(rng, dim)
            proj = typical_projector(rho, n, alpha)
            assert proj.trace_mass + 1e-12 >= 1.0 - dim / alpha**2
            pi = dense_projector(proj)
            assert linalg.frobenius(pi @ pi - pi) <= 1e-9
            ref = linalg.kron_all([rho] * n)
            assert linalg.commutator_norm(pi, ref) <= 1e-9 * pi.shape[0]
            # matrix trace agrees with the analytic mask sum
            overlap = float(np.einsum("ij,ji->", ref, pi).real)
            assert math.isclose(overlap, proj.trace_mass, abs_tol=1e-9)
            oracle = mass_by_types(proj.details["class_masses"], n, alpha)
            assert math.isclose(proj.trace_mass, oracle, rel_tol=1e-9, abs_tol=1e-12)

    def test_rank_diagnostics_present(self):
        proj = typical_projector(np.diag([0.75, 0.25]), 6, 1.5)
        d = proj.details
        assert d["rank"] == proj.rank
        assert d["entropy_bits"] == pytest.approx(binary_entropy(0.25), abs=1e-12)
        assert d["rank_exponent_constant"] is not None
        assert d["min_restricted_eigenvalue"] > 0.0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            typical_projector(np.eye(2) / 2.0, 13, 1.0)


class TestConditionalProjector:
    def qubit_channel(self):
        return CQChannel([np.diag([0.9, 0.1]), np.diag([0.3, 0.7])])

    def test_pure_letters_give_product_state(self):
        ch = CQChannel([KET0, PLUS])
        xn = (0, 1, 1)
        proj = conditional_typical_projector(ch, xn, 2.0)
        assert proj.rank == 1
        assert np.allclose(dense_projector(proj), tensor_output(xn, ch), atol=1e-12)
        assert math.isclose(proj.trace_mass, 1.0, abs_tol=1e-12)

    def test_frozen_two_block_example(self):
        proj = conditional_typical_projector(self.qubit_channel(), (0, 0, 0, 1, 1, 1), 3.0)
        # first block keeps 2..3 heavy outcomes, second keeps everything
        assert math.isclose(proj.trace_mass, 0.972, abs_tol=1e-12)
        assert proj.mass_bound == pytest.approx(1.0 - 4.0 / 9.0)
        blocks = proj.details["blocks"]
        assert [b["symbol"] for b in blocks] == [0, 1]
        assert math.isclose(blocks[0]["block_mass"], 0.972, abs_tol=1e-12)
        assert math.isclose(blocks[1]["block_mass"], 1.0, abs_tol=1e-12)

    def test_block_masses_multiply_to_trace_mass(self):
        rng = make_rng(53)
        ch = CQChannel([random_density(rng, 2) for _ in range(3)])
        xn = (0, 1, 2, 1, 0, 2)
        proj = conditional_typical_projector(ch, xn, 2.0)
        product = math.prod(b["block_mass"] for b in proj.details["blocks"])
        assert math.isclose(proj.trace_mass, product, rel_tol=1e-10, abs_tol=1e-12)

    def test_embedded_channel_matches_classical_oracle(self):
        w = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        ch = embed_classical(w)
        xn = (0, 1, 1, 0)
        alpha = 1.5
        proj = conditional_typical_projector(ch, xn, alpha)
        # entries within a row are distinct, so classes = output symbols
        indicator = np.real(np.diagonal(dense_projector(proj))).round(12)
        oracle = []
        for yn in itertools.product(range(3), repeat=4):
            ok = True
            for x in (0, 1):
                block = [yn[i] for i, s in enumerate(xn) if s == x]
                for y in range(3):
                    dev = abs(block.count(y) - len(block) * w[x, y])
                    if dev > alpha * math.sqrt(len(block) * w[x, y] * (1 - w[x, y])):
                        ok = False
            oracle.append(1.0 if ok else 0.0)
        assert np.array_equal(indicator, np.asarray(oracle))
        # diagonal construction: strictly zero off the diagonal
        pi = dense_projector(proj)
        assert np.abs(pi - np.diag(np.diagonal(pi))).max() == 0.0

    def test_mass_bound_and_invariants_on_random_channels(self):
        rng = make_rng(59)
        for trial in range(4):
            ch = CQChannel([random_density(rng, 2) for _ in range(3)])
            xn = tuple(int(s) for s in rng.integers(0, 3, size=5))
            alpha = 1.5 + trial
            proj = conditional_typical_projector(ch, xn, alpha)
            assert proj.trace_mass + 1e-12 >= 1.0 - 3 * 2 / alpha**2
            pi = dense_projector(proj)
            assert linalg.frobenius(pi @ pi - pi) <= 1e-9
            ref = tensor_output(xn, ch)
            assert linalg.commutator_norm(pi, ref) <= 1e-9 * pi.shape[0]
            overlap = float(np.einsum("ij,ji->", ref, pi).real)
            assert math.isclose(overlap, proj.trace_mass, abs_tol=1e-9)

    def test_range_basis_spans_projector(self):
        # the factored data name orthonormal eigenvectors of the reference
        # state with eigenvalues probs
        ch = self.qubit_channel()
        proj = conditional_typical_projector(ch, (0, 1, 0), 2.0)
        basis = range_basis(proj)
        assert basis.shape == (8, proj.rank)
        assert np.allclose(basis.conj().T @ basis, np.eye(proj.rank), atol=1e-12)
        assert np.allclose(tensor_output((0, 1, 0), ch) @ basis, basis * proj.probs, atol=1e-12)


class TestLetterSystems:
    STATES = [np.diag([0.9, 0.1]), PLUS, random_density(make_rng(91), 2)]

    def test_one_eigensystem_per_letter_per_channel(self, monkeypatch):
        calls = []
        make = channels._factor_systems

        def spy(states):
            calls.extend(states)
            return make(states)

        monkeypatch.setattr(channels, "_factor_systems", spy)
        ch = CQChannel(self.STATES)
        capacity(ch)
        assert calls == []  # the density checks and capacity make no eigensystem
        for xn in [(0, 1, 2), (2, 2, 0, 1), (1,), (0, 0)]:
            proj = conditional_typical_projector(ch, xn, 2.0)
            assert all(b is ch.systems[x][1] for b, x in zip(proj.factor_bases, xn))
        assert len(calls) == 3
        conditional_typical_projector(CQChannel(self.STATES), (0, 1), 2.0)
        assert len(calls) == 6

    def test_states_are_a_read_only_copy(self):
        states = np.array(self.STATES, dtype=np.complex128)
        ch = CQChannel(states)
        with pytest.raises(ValueError, match="read-only"):
            ch.states[0, 0, 0] = 0.5
        states[0] = KET1
        assert np.array_equal(ch.states[0], self.STATES[0])

    def test_projector_stores_only_what_it_cannot_derive(self):
        fields = [f.name for f in dataclasses.fields(channels.TypicalProjector)]
        assert fields == ["factor_bases", "factor_values", "mask", "probs", "alpha",
                          "sequence", "mass_bound", "details"]
        cond = conditional_typical_projector(CQChannel(self.STATES), (0, 2, 2), 2.0)
        state = typical_projector(self.STATES[2], 4, 2.0)
        assert (cond.n, cond.kind, state.n, state.kind) == (3, "conditional", 4, "unconditional")
        assert cond.trace_mass == math.fsum(cond.probs)


class TestFactoredProjector:
    def test_build_at_full_size_stays_small(self):
        # one dense 4096 x 4096 complex array alone is 268 MB
        rho = random_density(make_rng(71), 2)
        ch = CQChannel([random_density(make_rng(72), 2) for _ in range(2)])
        for build in (
            lambda: typical_projector(rho, 12, 3.0),
            lambda: conditional_typical_projector(ch, (0, 1) * 6, 3.0),
        ):
            tracemalloc.start()
            try:
                proj = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert proj.dim == 4096
            assert peak < 32 * 2**20

    @staticmethod
    def corrupt_eigh(monkeypatch, corrupt):
        eigh = linalg.eigh

        def corrupted(a):
            w, u = eigh(a)
            return w, corrupt(u)

        monkeypatch.setattr(linalg, "eigh", corrupted)

    def test_non_unitary_factor_basis_rejected_above_old_validation_size(self, monkeypatch):
        # the basis is checked where it is made, at any n, for states and channels alike
        rho = random_density(make_rng(73), 2)
        ch = CQChannel([rho, random_density(make_rng(75), 2)])
        self.corrupt_eigh(monkeypatch, lambda u: 1.01 * u)
        with pytest.raises(ValueError, match="not unitary"):
            typical_projector(rho, 11, 2.0)
        with pytest.raises(ValueError, match="not unitary"):
            ch.systems
        with pytest.raises(ValueError, match="not unitary"):
            conditional_typical_projector(ch, (0, 1) * 5 + (0,), 2.0)
        monkeypatch.undo()
        # a rejected eigensystem is not kept
        assert conditional_typical_projector(ch, (0, 1) * 5 + (0,), 2.0).dim == 2048

    def test_basis_must_diagonalize_its_letter(self, monkeypatch):
        rho = random_density(make_rng(74), 2)
        ch = CQChannel([rho, np.diag([0.7, 0.3])])
        self.corrupt_eigh(monkeypatch, lambda u: u[:, ::-1])
        with pytest.raises(ValueError, match="diagonalize"):
            typical_projector(rho, 3, 2.0)
        with pytest.raises(ValueError, match="diagonalize"):
            ch.systems
        # a diagonal letter takes no eigensolve: its identity basis passes
        diag = typical_projector(np.diag([0.7, 0.3]), 3, 2.0)
        assert all(np.array_equal(b, np.eye(2)) for b in diag.factor_bases)
        with pytest.raises(ValueError, match="diagonalize"):
            channels._check_factors(np.eye(2)[None], np.array([[0.3, 0.7]]), np.diag([0.7, 0.3])[None])

    def test_mask_must_increase_inside_dim(self):
        proj = typical_projector(np.diag([0.7, 0.3]), 3, 1e9)
        assert proj.rank == 8
        for mask in ([1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6, 8], [0, 0, 1, 2, 3, 4, 5, 6]):
            with pytest.raises(ValueError, match="strictly increasing"):
                dataclasses.replace(proj, mask=np.array(mask))

    def test_mask_and_probs_match_itertools_enumeration(self):
        ch = CQChannel([random_density(make_rng(76), 3), np.diag([0.5, 0.3, 0.2])])
        xn = (0, 1, 1, 0, 1)
        proj = conditional_typical_projector(ch, xn, 1.5)
        values = proj.factor_values
        expected = {}
        for flat, combo in enumerate(itertools.product(range(3), repeat=5)):
            expected[flat] = math.prod(max(0.0, float(values[i][combo[i]])) for i in range(5))
        assert proj.rank > 0
        for flat, prob in zip(proj.mask.tolist(), proj.probs.tolist()):
            assert prob == expected[flat]  # same running product, bit for bit
        assert proj.digits.shape == (5, proj.rank)
        assert (np.ravel_multi_index(tuple(proj.digits), (3,) * 5) == proj.mask).all()

    def test_block_composed_mask_matches_the_all_factor_mask(self):
        rng = make_rng(77)
        ranges = set()
        for i, seed in enumerate(spawn_seeds(78, 40)):
            a, d, n = 2 + i % 2, 2 + (i // 2) % 2, 3 + i % 5
            ch = channels.random_channel(seed, a, d)
            xn = tuple(int(s) for s in rng.integers(0, a, size=n))
            alpha = float(rng.uniform(0.5, 2.5))
            proj = conditional_typical_projector(ch, xn, alpha)
            mask, probs = conditional_mask_all_factors(ch.systems, xn, alpha)
            assert proj.mask.dtype == mask.dtype and proj.probs.dtype == probs.dtype
            assert np.array_equal(proj.mask, mask) and np.array_equal(proj.probs, probs), i
            ranges.add("empty" if proj.rank == 0 else "proper" if proj.rank < proj.dim else "full")
        assert ranges == {"empty", "proper"}

    def test_one_block_mask_per_distinct_symbol(self, monkeypatch):
        calls = []
        build = channels._product_masks

        def spy(blocks):
            calls.extend(m for _, _, m, _, _ in blocks)
            return build(blocks)

        monkeypatch.setattr(channels, "_product_masks", spy)
        ch = channels.random_channel(79, 3, 2)
        conditional_typical_projector(ch, (2, 0, 2, 2, 1, 0, 2), 2.0)
        assert sorted(calls) == [1, 2, 4]

    @pytest.mark.parametrize("block_entries", [channels.COUNT_BLOCK_ENTRIES, 1])
    def test_block_mask_matches_the_all_factor_digit_arrays(self, monkeypatch, block_entries):
        # one block_entries of 1 counts one class at a time
        monkeypatch.setattr(channels, "COUNT_BLOCK_ENTRIES", block_entries)
        rng = make_rng(83)
        for i in range(60):
            a, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            values = rng.dirichlet(np.ones(a))
            if a > 2 and i % 3 == 0:
                values[1] = values[0]  # a merged class
            if i % 4 == 0:
                values[-1] = -1e-17  # clipped to zero in the products
            alpha = float(rng.uniform(0.0, 3.0))
            [(ids, masses)] = channels._merge_close(values[None])
            mask, probs = channels._product_masks([(values, ids, m, *channels._window(masses, m, alpha))])[0]
            systems = {0: (values, np.eye(a), ids, masses)}
            want_mask, want_probs = conditional_mask_all_factors(systems, (0,) * m, alpha)
            assert mask.dtype == want_mask.dtype and probs.dtype == want_probs.dtype
            assert np.array_equal(mask, want_mask) and np.array_equal(probs, want_probs), i

    def test_block_mask_memory_is_bounded(self):
        # 2^19 indices: the result is 8 MB; m x a^m int64 digit arrays were 80 MB each
        values = np.array([0.5, 0.5])
        [(ids, masses)] = channels._merge_close(values[None])
        tracemalloc.start()
        try:
            mask, probs = channels._product_masks([(values, ids, 19, *channels._window(masses, 19, 3.0))])[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.size > 2**18
        assert peak <= 64 * 2**20


class TestCrossTypicalMass:
    def test_matches_dense_trace_without_dense_output(self, monkeypatch):
        rng = make_rng(67)
        cases = [(embed_classical([[0.6, 0.4], [0.1, 0.9]]), (0, 1, 1, 0, 1))]
        for dim, n, a in [(2, 4, 2), (2, 6, 3), (3, 3, 2), (3, 5, 2), (2, 5, 2)]:
            ch = CQChannel([random_density(rng, dim) for _ in range(a)])
            cases.append((ch, tuple(int(s) for s in rng.integers(0, a, size=n))))

        def no_dense(*args):
            raise AssertionError("cross_typical_mass built a dense product output")

        for ch, xn in cases:
            with monkeypatch.context() as m:
                m.setattr(channels, "tensor_output", no_dense)
                mass, proj = cross_typical_mass(ch, xn, 2.5)
            dense = float(np.einsum("ij,ji->", tensor_output(xn, ch), dense_projector(proj)).real)
            assert abs(mass - dense) <= 1e-12

    def test_frozen_example_bound(self):
        mass, proj = cross_typical_mass(self.channel(), (0, 0, 0, 1, 1, 1), 3.0)
        assert mass >= 1.0 - 4.0 / 9.0
        assert proj.kind == "unconditional"
        assert proj.alpha == pytest.approx(3.0 * math.sqrt(2.0))

    def channel(self):
        return CQChannel([np.diag([0.9, 0.1]), np.diag([0.3, 0.7])])

    def test_bound_on_random_channels(self):
        rng = make_rng(61)
        for alpha in (2.0, 3.0):
            ch = CQChannel([random_density(rng, 2) for _ in range(2)])
            xn = tuple(int(s) for s in rng.integers(0, 2, size=4))
            mass, proj = cross_typical_mass(ch, xn, alpha)
            assert mass + 1e-9 >= 1.0 - 2 * 2 / alpha**2
            assert proj.n == 4


def assert_same_projector(got, want):
    """Bit for bit: mask, probs, factor bases and values (dtypes too), details and scalars."""
    for a, b in [(got.mask, want.mask), (got.probs, want.probs),
                 *zip(got.factor_bases, want.factor_bases), *zip(got.factor_values, want.factor_values)]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert len(got.factor_bases) == len(want.factor_bases) == len(got.factor_values)
    assert got.details == want.details
    assert (got.alpha, got.sequence, got.mass_bound) == (want.alpha, want.sequence, want.mass_bound)


class TestBatchedBuilders:
    """The batched builders against the per-state builders of tests/oracles.py."""

    @staticmethod
    def count_eigensolves(monkeypatch):
        calls = []
        eigh = linalg.eigh

        def counted(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(linalg, "eigh", counted)
        return calls

    @staticmethod
    def merged_state(rng):
        # two eigenvalues 5e-10 apart merge into one eigenspace class
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        return u @ np.diag([0.3, 0.35, 0.35 + 5e-10]) @ u.conj().T

    def test_states_match_per_state_builds(self, monkeypatch):
        rng = make_rng(401)
        for d in (2, 3):
            stack = [random_density(rng, d) for _ in range(5)]
            stack.insert(2, np.diag(random_distribution(rng, d)))
            if d == 3:
                stack.append(self.merged_state(rng))
            for n, alpha in [(1, 1.0), (4, 1.5), (6, 2.5)]:
                calls = self.count_eigensolves(monkeypatch)
                got = typical_projectors(stack, n, alpha)
                monkeypatch.undo()
                # one eigensolve for every non-diagonal state
                assert calls == [(len(stack) - 1, d, d)]
                for proj, rho in zip(got, stack):
                    assert_same_projector(proj, per_state_typical_projector(rho, n, alpha))
        merged = typical_projector(self.merged_state(make_rng(402)), 3, 2.0)
        assert len(merged.details["class_masses"]) == 2

    def test_diagonal_states_take_no_eigensolve(self, monkeypatch):
        stack = [np.diag([0.7, 0.3]), np.diag([0.2, 0.8]), np.diag([0.5, 0.5])]
        calls = self.count_eigensolves(monkeypatch)
        got = typical_projectors(stack, 5, 2.0)
        assert calls == []
        for proj, rho in zip(got, stack):
            assert_same_projector(proj, per_state_typical_projector(rho, 5, 2.0))
        CQChannel(stack).systems
        assert calls == []

    def test_empty_range_matches(self):
        # alpha = 0 keeps only exact class counts, and 3 * 0.7 is no count
        rng = make_rng(403)
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        stack = [u @ np.diag([0.7, 0.3]) @ u.conj().T, np.diag([0.5, 0.5])]
        got = typical_projectors(stack, 3, 0.0)
        assert got[0].rank == 0 and got[1].rank > 0
        for proj, rho in zip(got, stack):
            assert_same_projector(proj, per_state_typical_projector(rho, 3, 0.0))

    def test_unsorted_sequences_match_per_sequence_builds(self):
        rng = make_rng(404)
        for d in (2, 3):
            ch = CQChannel([random_density(rng, d), np.diag(random_distribution(rng, d)),
                            random_density(rng, d)])
            seqs = [(2, 0, 1, 0, 2), (1, 1, 0, 2, 0), (0, 2, 2), (2, 2, 2, 2), (1,), (0, 1, 2, 2, 1, 0)]
            for alpha in (0.0, 1.0, 2.5):
                got = conditional_typical_projectors(ch, seqs, alpha)
                for proj, xn in zip(got, seqs):
                    assert_same_projector(proj, per_state_conditional_typical_projector(ch, xn, alpha))

    @pytest.mark.parametrize("block_entries", [1, 64])
    def test_chunked_batches_match(self, monkeypatch, block_entries):
        # small budgets split the class counts, the stacked products and the sequence runs
        monkeypatch.setattr(channels, "COUNT_BLOCK_ENTRIES", block_entries)
        rng = make_rng(406)
        stack = [random_density(rng, 2) for _ in range(4)] + [np.diag([0.6, 0.4])]
        for proj, rho in zip(typical_projectors(stack, 5, 1.5), stack):
            assert_same_projector(proj, per_state_typical_projector(rho, 5, 1.5))
        ch = CQChannel([random_density(rng, 3) for _ in range(3)])
        seqs = [(0, 1, 2, 2), (2, 1, 0, 0), (1, 1, 1, 0), (0, 2), (2, 0, 1, 1)]
        for proj, xn in zip(conditional_typical_projectors(ch, seqs, 2.0), seqs):
            assert_same_projector(proj, per_state_conditional_typical_projector(ch, xn, 2.0))

    SKEW = "is not Hermitian within 1e-10"
    OUTSIDE = "falls outside the operator interval [0, identity]"

    @pytest.mark.parametrize("bad, message, edge, effect", [
        pytest.param(np.array([[0.5, 0.3], [0.1, 0.5]]), f"rho {SKEW}", f"edge {SKEW}", f"test effect {SKEW}",
                     id="bad0-not Hermitian"),
        pytest.param(np.diag([1.5, 0.5]), "rho has trace 2.0, expected 1", "edge exceeds the eta cap",
                     f"test effect {OUTSIDE}", id="bad1-has trace 2.0"),
        pytest.param(np.array([[1.1, 0.0], [0.0, -0.1]]), "rho has a negative eigenvalue beyond tolerance",
                     "edge is not positive semidefinite", f"test effect {OUTSIDE}", id="bad2-negative eigenvalue"),
        pytest.param(np.array([[0.5, np.nan], [0.5, 0.5]]), f"rho {SKEW}", f"edge {SKEW}", f"test effect {SKEW}",
                     id="bad3-NaN entry"),
    ])
    def test_bad_state_in_a_stack_raises_as_alone(self, bad, message, edge, effect):
        with pytest.raises(ValueError) as alone:
            per_state_typical_projector(bad, 3, 2.0)
        assert str(alone.value) == message
        rng = make_rng(405)
        stack = [random_density(rng, 2), bad, random_density(rng, 2)]
        with pytest.raises(ValueError) as batched:
            typical_projectors(stack, 3, 2.0)
        assert str(batched.value) == message
        with pytest.raises(ValueError) as scalar:
            typical_projector(bad, 3, 2.0)
        assert str(scalar.value) == message
        # each constructor of a matrix family raises what its loop over the
        # family raised, naming the matrix by its index where it did
        value = f"values[1] {self.SKEW}" if self.SKEW in message else None
        builds = [
            (CQChannel, message.replace("rho", "state 1")),
            (lambda s: QuantumHypergraph(2, s, eta=1.0), edge),
            (lambda s: OperatorRV([0.25, 0.5, 0.25], s), value),
            (lambda s: QIDCode(1, [({(0,): 1.0}, m) for m in s]), effect),
        ]
        for build, want in builds:
            if want is None:
                build(stack)
                continue
            with pytest.raises(ValueError) as err:
                build(stack)
            assert str(err.value) == want

    def test_first_failing_state_decides_the_message(self):
        # the loop of per-state builds meets the non-PSD state first
        stack = [np.diag([0.5, 0.5]), np.array([[1.1, 0.0], [0.0, -0.1]]), np.diag([1.5, 0.5])]
        with pytest.raises(ValueError, match="negative eigenvalue"):
            typical_projectors(stack, 3, 2.0)
        with pytest.raises(ValueError, match="has trace"):
            typical_projectors(stack[::-1], 3, 2.0)
        with pytest.raises(ValueError, match=r"^state 1 has a negative eigenvalue"):
            CQChannel(stack)
        with pytest.raises(ValueError, match=r"^state 0 has trace 2\.0"):
            CQChannel(stack[::-1])
        # a NaN letter fails as not Hermitian, and only where no earlier letter fails
        nan = np.array([[0.5, np.nan], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"^state 1 is not Hermitian"):
            CQChannel([stack[0], nan, stack[1]])
        with pytest.raises(ValueError, match=r"^state 1 has a negative eigenvalue"):
            CQChannel([stack[0], stack[1], nan])
        skew = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValueError, match=r"^values\[1\] is not Hermitian"):
            OperatorRV([0.25, 0.5, 0.25], [stack[0], nan, skew])
        with pytest.raises(ValueError, match=r"^values\[0\] is not Hermitian"):
            OperatorRV([0.25, 0.5, 0.25], [skew, nan, stack[0]])
