import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from opcover import concentration, linalg
from opcover.concentration import (
    ENUMERATION_CHUNK_ENTRIES,
    MC_COMPARE_ATOMS,
    OperatorRV,
    TailReport,
    bernstein_bound,
    chebyshev_tail,
    chernoff_tail,
    conjecture_probe,
    exact_tail,
    markov_tail,
    mc_tail,
    two_sided_chernoff,
    weak_law_tail,
)
from opcover.rng import haar_unitary, make_rng, random_distribution, random_effect

from oracles import (binom_tail_ge, binom_tail_le, brute_force_tail, half_integer_sum_pmf,
                     in_operator_interval, markov_by_support_checks, per_trial_mc_tail)

E0 = np.diag([1.0, 0.0])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def coin(p=0.5):
    return OperatorRV.scalar([1.0 - p, p], [0.0, 1.0])


class TestOperatorRV:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorRV([0.5, 0.6], [E0, PLUS])
        with pytest.raises(ValueError):
            OperatorRV([0.5, 0.5], [E0, np.eye(3)])
        with pytest.raises(ValueError):
            OperatorRV([1.0], [np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_mean_and_variance(self):
        rv = coin()
        assert rv.mean()[0, 0].real == pytest.approx(0.5)
        assert rv.variance()[0, 0].real == pytest.approx(0.25)
        qubit = OperatorRV([0.5, 0.5], [E0, PLUS])
        np.testing.assert_allclose(qubit.mean(), (E0 + PLUS) / 2, atol=1e-12)

    def test_convolution_mean_and_variance_add(self):
        rng = make_rng(3)
        a = OperatorRV([0.3, 0.7], [E0, PLUS])
        b = OperatorRV([0.6, 0.4], [0.2 * np.eye(2), PLUS])
        c = a.convolve(b)
        np.testing.assert_allclose(c.mean(), a.mean() + b.mean(), atol=1e-12)
        np.testing.assert_allclose(c.variance(), a.variance() + b.variance(), atol=1e-12)

    def test_json_round_trip(self):
        rv = OperatorRV([0.5, 0.5], [E0, PLUS])
        back = OperatorRV.from_json(rv.to_json())
        np.testing.assert_array_equal(back.values, rv.values)


class TestMarkov:
    def test_scalar_frozen(self):
        rep = markov_tail(OperatorRV.scalar([0.1, 0.9], [2.0, 0.0]), np.array([[1.0]]))
        assert rep.probability == pytest.approx(0.1, abs=1e-12)
        assert rep.bound == pytest.approx(0.2, abs=1e-12)

    def test_qubit_frozen(self):
        rep = markov_tail(OperatorRV([0.5, 0.5], [E0, PLUS]), 0.9 * np.eye(2))
        assert rep.probability == pytest.approx(1.0)
        assert rep.bound == pytest.approx(1.0 / 0.9, abs=1e-12)

    def test_support_violation_is_flagged_trivial(self):
        rep = markov_tail(OperatorRV([0.5, 0.5], [E0, PLUS]), np.diag([1.0, 0.0]))
        assert math.isinf(rep.bound)
        assert rep.method == "markov-trivial"
        assert 0.0 <= rep.probability <= 1.0

    @staticmethod
    def instance(seed):
        """A seeded (rv, A): A Haar-rotated or diagonal, of full rank or singular.

        For half the singular A the atoms are compressed into A's range,
        so the mean's support is contained in a proper subspace.
        """
        rng = make_rng(seed)
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        diagonal, singular, inside = seed % 2 == 0, seed % 4 >= 2, seed % 8 >= 6
        basis = np.eye(d) if diagonal else haar_unitary(rng, d)
        w = rng.uniform(0.2, 2.0, size=d)
        if singular:
            w[int(rng.integers(0, d)):] = 0.0
        a = linalg.hermitize((basis * w) @ basis.conj().T)
        values = [random_effect(rng, d) for _ in range(k)]
        if inside:
            keep = basis[:, w > 0]
            values = [linalg.hermitize(keep @ keep.conj().T @ x @ keep @ keep.conj().T) for x in values]
        return OperatorRV(random_distribution(rng, k), values), a

    def test_one_eigh_of_a_agrees_with_the_separate_support_checks(self):
        methods = {"markov": 0, "markov-trivial": 0}
        singular_bounded = 0
        for seed in range(400):
            rv, a = self.instance(seed)
            ref = markov_by_support_checks(rv.probs, rv.values, a)
            rep = markov_tail(rv, a)
            assert (rep.probability, rep.bound, rep.method) == ref
            methods[rep.method] += 1
            singular_bounded += rep.method == "markov" and seed % 4 >= 2
        assert methods["markov"] >= 200 and methods["markov-trivial"] >= 50
        assert singular_bounded >= 30

    @pytest.mark.parametrize("seed, bound", [(63, 0.8398988775302177), (167, 2.3071173254142856),
                                             (207, 1.8651357243846287)])
    def test_rounding_level_kernel_eigenvalues_are_not_inverted(self, seed, bound):
        # singular A whose kernel eigenvalues come out near 1e-17: inverting
        # them read 2.25 and 1.906 for the first two and -1.875 for the
        # last, which raised BoundViolation against its probability 1
        rep = markov_tail(*self.instance(seed))
        assert rep.method == "markov" and rep.bound == pytest.approx(bound, rel=1e-12)
        assert rep.probability <= rep.bound

    def test_makes_one_eigh_of_a(self, monkeypatch):
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def spy(fn, name):
            def wrapped(m):
                calls.append((name, np.shape(m)))
                return fn(m)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", spy(eigh, "eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy(eigvalsh, "eigvalsh"))
        rv = OperatorRV([0.2, 0.3, 0.5], [E0, PLUS, 0.5 * np.eye(2)])
        for a, method in ((0.9 * np.eye(2), "markov"), (np.diag([1.0, 0.0]), "markov-trivial")):
            calls.clear()
            assert markov_tail(rv, a).method == method
            # A's check, support and pseudo-inverse; the mean's check and
            # tolerance; the event on every atom; the support containment
            assert calls == [("eigh", (2, 2)), ("eigvalsh", (2, 2)), ("eigvalsh", (3, 2, 2)),
                             ("eigvalsh", (2, 2))]


class TestChebyshev:
    def test_fair_coin_frozen(self):
        rep = chebyshev_tail(coin(), np.array([[0.4]]))
        assert rep.probability == pytest.approx(1.0)
        assert rep.bound == pytest.approx(0.25 / 0.16, abs=1e-12)

    def test_singular_delta_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_tail(coin(), np.array([[0.0]]))

    def test_qubit_bound_holds(self):
        rv = OperatorRV([0.5, 0.5], [E0, PLUS])
        rep = chebyshev_tail(rv, 0.75 * np.eye(2))
        assert rep.probability <= min(1.0, rep.bound) + 1e-12


class TestWeakLaw:
    def test_bernoulli_frozen(self):
        rep = weak_law_tail(coin(), 20, np.array([[0.25]]))
        expected = 2 * binom_tail_le(20, 4)
        assert rep.probability == pytest.approx(float(expected), abs=1e-12)
        assert rep.bound == pytest.approx(0.25 / (0.0625 * 20), abs=1e-12)

    def test_qubit_enumeration_against_brute_force(self):
        rv = OperatorRV([0.4, 0.6], [E0, PLUS])
        n = 5
        m = rv.mean()
        delta = 0.3 * np.eye(2)

        def event(s):
            return not in_operator_interval(s / n, m - delta, m + delta)

        rep = weak_law_tail(rv, n, delta)
        brute = brute_force_tail(rv.probs, rv.values, n, event)
        assert rep.probability == pytest.approx(brute, abs=1e-10)
        assert rep.probability <= rep.bound + 1e-12

    def test_mc_matches_exact_within_noise(self):
        rv = coin()
        exact = weak_law_tail(rv, 20, np.array([[0.15]])).probability
        rep = weak_law_tail(rv, 20, np.array([[0.15]]), trials=4000, seed=99)
        assert rep.trials == 4000
        assert abs(rep.probability - exact) <= 5 * max(rep.stderr, 1e-3)

    def test_1_over_n_scaling(self):
        rv = coin()
        b1 = weak_law_tail(rv, 1, np.array([[0.3]])).bound
        b10 = weak_law_tail(rv, 10, np.array([[0.3]])).bound
        assert b10 == pytest.approx(b1 / 10, abs=1e-12)


class TestChernoff:
    def test_bernoulli_exact_and_bound(self):
        rep = chernoff_tail(coin(), 50, 0.75, 0.5)
        assert rep.probability == pytest.approx(float(binom_tail_ge(50, 38)), abs=1e-15)
        d = linalg.binary_divergence(0.75, 0.5)
        assert rep.bound == pytest.approx(2.0 ** (-50 * d), rel=1e-12)
        assert rep.probability <= rep.bound

    def test_qubit_bound_value(self):
        rv = OperatorRV([0.5, 0.5], [0.25 * E0, 0.25 * np.eye(2) + 0.5 * PLUS])
        # mean has top eigenvalue 1/2, so m = 0.5 is a valid cap at d = 2
        rep = chernoff_tail(rv, 50, 0.75, 0.5)
        assert rep.bound == pytest.approx(2 * 2.0 ** (-50 * linalg.binary_divergence(0.75, 0.5)), rel=1e-12)
        assert rep.probability <= rep.bound + 1e-12

    def test_lower_side_mirror(self):
        rep = chernoff_tail(coin(), 50, 0.25, 0.5, side="lower")
        # event: sum not >= 12.5, i.e. sum <= 12
        assert rep.probability == pytest.approx(float(binom_tail_le(50, 12)), abs=1e-15)
        assert rep.bound == pytest.approx(2.0 ** (-50 * linalg.binary_divergence(0.25, 0.5)), rel=1e-12)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            chernoff_tail(coin(), 10, 0.3, 0.5)  # a < m on the upper side
        with pytest.raises(ValueError):
            chernoff_tail(coin(), 10, 0.75, 0.4)  # mean not <= m
        with pytest.raises(ValueError):
            chernoff_tail(OperatorRV.scalar([0.5, 0.5], [0.0, 2.0]), 10, 0.75, 0.5)
        with pytest.raises(ValueError):
            chernoff_tail(coin(), 10, 0.75, 0.5, side="sideways")

    def test_mc_path_reports_stderr(self):
        rep = chernoff_tail(coin(), 200, 0.6, 0.5, trials=2000, seed=5)
        assert rep.method.endswith("-mc")
        assert rep.stderr > 0.0
        exact = float(binom_tail_ge(200, 121))
        assert abs(rep.probability - exact) <= 5 * max(rep.stderr, 1e-3)


class TestTwoSided:
    def test_bernoulli_frozen(self):
        rep = two_sided_chernoff(coin(), 100, 0.4)
        expected = 2 * binom_tail_le(100, 29)
        assert rep.probability == pytest.approx(float(expected), abs=1e-15)
        mu = 0.5
        assert rep.bound == pytest.approx(2 * 2.0 ** (-100 * 0.16 * mu / (2 * math.log(2))), rel=1e-12)

    def test_eps_window_and_mean_requirements(self):
        with pytest.raises(ValueError):
            two_sided_chernoff(coin(), 10, 0.7)
        singular_mean = OperatorRV([0.5, 0.5], [E0, E0])
        with pytest.raises(ValueError):
            two_sided_chernoff(singular_mean, 10, 0.3)

    def test_qubit_pair_small_n(self):
        rv = OperatorRV([0.5, 0.5], [E0, PLUS])
        rep = two_sided_chernoff(rv, 12, 0.5)
        assert rep.probability <= 1.0
        brute = brute_force_tail(
            rv.probs, rv.values, 12,
            lambda s: not in_operator_interval(s / 12, 0.5 * rv.mean(), 1.5 * rv.mean()),
        )
        assert rep.probability == pytest.approx(brute, abs=1e-10)


class TestBernstein:
    def test_scalar_optimizer_matches_divergence(self):
        a, m, n = 0.75, 0.5, 50
        t = math.log(a * (1 - m) / (m * (1 - a)))
        got = bernstein_bound(coin(), np.array([[a]]), np.array([[math.sqrt(t)]]), n)
        want = 2.0 ** (-n * linalg.binary_divergence(a, m))
        assert abs(got - want) <= 1e-10

    def test_qubit_dominates_enumerated_tail(self):
        rv = OperatorRV([0.5, 0.5], [E0, PLUS])
        n = 10
        a_op = 0.9 * np.eye(2)
        bound = bernstein_bound(rv, a_op, np.eye(2), n)
        tail = exact_tail(rv, n, lambda s: ~linalg.psd_leq(s, n * a_op))
        assert tail <= bound + 1e-12

    def test_singular_t_rejected(self):
        with pytest.raises(ValueError):
            bernstein_bound(coin(), np.array([[0.5]]), np.array([[0.0]]), 3)


class TestEnumerationEngine:
    def test_multiset_enumeration_equals_brute_force(self):
        rv = OperatorRV([0.35, 0.65], [E0, PLUS])
        n = 5
        target = n * 0.8 * np.eye(2)
        mine = exact_tail(rv, n, lambda s: ~linalg.psd_leq(s, target))
        brute = brute_force_tail(rv.probs, rv.values, n, lambda s: ~linalg.psd_leq(s, target))
        assert mine == pytest.approx(brute, abs=1e-12)

    def test_overflow_requires_trials(self):
        rv = OperatorRV.scalar([0.2] * 5, [0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ValueError, match="enumeration"):
            exact_tail(rv, 2000, lambda s: False)

    def test_chunked_enumeration_matches_exact_law(self):
        # 5,151 compositions of n = 100 into 3 atoms span several chunks
        probs = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
        rv = OperatorRV.scalar([float(p) for p in probs], [0.0, 0.5, 1.0])
        n = 100
        assert math.comb(n + 2, 2) > ENUMERATION_CHUNK_ENTRIES
        pmf = half_integer_sum_pmf(probs, n)
        for threshold in (60.0, 70.0):
            got = exact_tail(rv, n, lambda s: ~linalg.psd_leq(s, np.array([[threshold]])))
            want = sum(pmf[int(2 * threshold) + 1:])
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_mc_doubling_halves_stderr(self):
        rv = coin()
        target = np.array([[0.55 * 40]])

        def batch(sums):
            return sums[:, 0, 0].real > target[0, 0]

        _, se1 = mc_tail(rv, 40, 4000, 17, batch)
        _, se2 = mc_tail(rv, 40, 8000, 17, batch)
        assert se2 == pytest.approx(se1 / math.sqrt(2), rel=0.15)

    def test_grouped_mc_equals_per_trial_oracle_past_any_radix_key(self):
        # 30 atoms at n = 7: a count vector keyed in radix n + 1 = 2^3
        # needs 2^90 values, so a wrapped 64-bit key drops atoms 22 and up
        # and a float key the lowest ones.  The dyadic atoms make every
        # sum exact: the per-trial sums and the grouped ones decide alike.
        k, n, trials, seed = 30, 7, 6000, 23
        assert (n + 1) ** k > 2**64
        probs = make_rng(5).dirichlet(np.full(k, 0.2))
        rv = OperatorRV.scalar(probs, [(j % 8) / 8 for j in range(k)])
        seen = []

        def event(sums):
            seen.append(len(sums))
            return sums[:, 0, 0].real > threshold

        # one evaluation per distinct multiset of draws, none missed or merged
        idx = make_rng(seed).choice(k, size=(trials, n), p=rv.probs)
        distinct = len(np.unique(np.sort(idx, axis=1), axis=0))
        assert distinct < trials
        for threshold in (1.5, 2.5, 3.5):
            seen.clear()
            got = mc_tail(rv, n, trials, seed, event)
            assert sum(seen) == distinct
            # each product's count block stays within the entry budget,
            # and a stack holds as many whole blocks as the 1 x 1 sums allow
            rows = ENUMERATION_CHUNK_ENTRIES // k
            assert max(seen) == ENUMERATION_CHUNK_ENTRIES // rows * rows
            assert got == per_trial_mc_tail(rv.probs, rv.values, n, trials, make_rng(seed), event)

    def test_many_atoms_fill_the_event_stack(self):
        # 2,000 atoms at n = 100: a block of count vectors within the entry
        # budget holds 2 of them, so one event call per block would make
        # 4,000 calls.  The event sees stacks as large as the 2 x 2 sums
        # allow, while each product casts one small block, so the working
        # memory stays the two count arrays.  Dyadic atoms make every sum
        # exact, so the per-trial oracle decides alike.
        k, n, trials, seed = 2000, 100, 8000, 41
        rng = make_rng(6)
        half = rng.integers(-4, 5, size=(k, 2, 2)) / 16
        rv = OperatorRV(rng.dirichlet(np.ones(k)), half + half.transpose(0, 2, 1))
        seen = []

        def event(sums):
            seen.append(len(sums))
            return ~linalg.psd_leq(sums, 2.0 * np.eye(2))

        tracemalloc.start()
        try:
            got = mc_tail(rv, n, trials, seed, event)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the drawn (atoms x trials) counts and the block of distinct ones
        assert peak < 2 * k * trials * 8 + (16 << 20)
        idx = make_rng(seed).choice(k, size=(trials, n), p=rv.probs)
        distinct = len(np.unique(np.sort(idx, axis=1), axis=0))
        assert sum(seen) == distinct
        assert len(seen) <= math.ceil(distinct / (ENUMERATION_CHUNK_ENTRIES // 4))
        assert 0.0 < got[0] < 1.0
        seen.clear()
        assert got == per_trial_mc_tail(rv.probs, rv.values, n, trials, make_rng(seed), event)

    @pytest.mark.parametrize("probs, n, trials", [
        # tied cdf steps: zero atoms first, inside and last
        ([0.0, 0.25, 0.0, 0.375, 0.375, 0.0], 9, 4000),
        ([1.0], 5, 300),
        # one atom count either side of the comparison / search crossover,
        # each keyed past 64 bits in radix n + 1 = 8, so the key is re-ranked
        (MC_COMPARE_ATOMS, 7, 5000),
        (MC_COMPARE_ATOMS + 1, 7, 5000),
        # every trial apart before the last atom is keyed
        (200, 20, 2000),
    ], ids=["zero-atoms", "one-atom", "compare-side", "search-side", "all-distinct"])
    def test_mc_counts_match_choice_stream(self, probs, n, trials):
        if isinstance(probs, int):
            probs = make_rng(probs).dirichlet(np.full(probs, 0.5))
        k, seed = len(probs), 31
        values = np.arange(k) % 8 / 8  # dyadic: every sum is exact
        rv = OperatorRV.scalar(probs, values)
        idx = make_rng(seed).choice(k, size=(trials, n), p=rv.probs)
        distinct = len(np.unique(np.sort(idx, axis=1), axis=0))
        for threshold in np.quantile(values[idx].sum(axis=1), [0.3, 0.7]):
            seen = []

            def event(sums):
                seen.append(len(sums))
                return sums[:, 0, 0].real > threshold

            got = mc_tail(rv, n, trials, seed, event)
            assert sum(seen) == distinct
            assert max(seen) <= ENUMERATION_CHUNK_ENTRIES
            assert got == per_trial_mc_tail(rv.probs, rv.values, n, trials, make_rng(seed), event)

    def test_mc_tail_never_calls_choice(self, monkeypatch):
        class NoChoice:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                if name == "choice":
                    raise AssertionError("mc_tail called Generator.choice")
                return getattr(self.rng, name)

        rv = OperatorRV([0.2, 0.3, 0.1, 0.4], [E0, PLUS, 0.5 * np.eye(2), np.diag([0.0, 1.0])])

        def event(sums):
            return ~linalg.psd_leq(sums, 0.6 * 18 * np.eye(2))

        want = per_trial_mc_tail(rv.probs, rv.values, 18, 3000, make_rng(4), event)
        monkeypatch.setattr(concentration, "make_rng", lambda seed: NoChoice(make_rng(seed)))
        assert mc_tail(rv, 18, 3000, 4, event) == want

    @pytest.mark.parametrize("n, trials", [(12, 5000), (40, 8000)])
    def test_event_sees_each_distinct_sum_once_in_chunks(self, n, trials):
        rv = OperatorRV([0.2, 0.3, 0.1, 0.4], [E0, PLUS, 0.5 * np.eye(2), np.diag([0.0, 1.0])])
        multisets = math.comb(n + 3, 3)

        def spy(sizes):
            def event(sums):
                sizes.append(len(sums))
                return ~linalg.psd_leq(sums, 0.6 * n * np.eye(2))
            return event

        mc_sizes, exact_sizes = [], []
        mc_tail(rv, n, trials, 3, spy(mc_sizes))
        exact_tail(rv, n, spy(exact_sizes))
        assert sum(mc_sizes) <= min(trials, multisets)
        assert sum(exact_sizes) == multisets
        assert max(mc_sizes + exact_sizes) <= ENUMERATION_CHUNK_ENTRIES // 4
        if n == 40:  # both engines span several chunks here
            assert len(mc_sizes) > 1 and len(exact_sizes) > 1


class TestConjectureProbes:
    def test_product_trace_form_holds_at_two_factors(self):
        rep = conjecture_probe(1, 2, 100, seed=101)
        assert rep.instances == 100
        assert rep.min_slack >= -1e-9
        assert rep.violations == 0

    def test_log_sum_exp_probe_reports(self):
        rep = conjecture_probe(2, 2, 50, seed=103)
        assert len(rep.slacks) == 50
        assert rep.violations == sum(1 for s in rep.slacks if s < -1e-9)

    def test_log_sum_exp_commuting_equality(self):
        # with commuting families both sides coincide
        a_fam = [np.diag([0.3, -0.2]), np.diag([0.1, 0.4])]
        b_fam = [np.diag([-0.5, 0.2]), np.diag([0.7, -0.1])]
        cross = sum(linalg.herm_exp(a + b) for a in a_fam for b in b_fam)
        lhs = linalg.herm_log(cross, base=math.e)
        rhs = linalg.herm_log(sum(linalg.herm_exp(a) for a in a_fam), base=math.e) + linalg.herm_log(
            sum(linalg.herm_exp(b) for b in b_fam), base=math.e
        )
        assert linalg.frobenius(lhs - rhs) <= 1e-9

    def test_divergence_tail_probe_shape(self):
        rep = conjecture_probe(3, 2, 25, seed=107)
        assert rep.instances == 25
        assert all("conjectured" in d and "exact" in d for d in rep.details)
        assert rep.to_json()["which"] == 3

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            conjecture_probe(4, 2, 10, seed=1)
        with pytest.raises(ValueError):
            conjecture_probe(1, 9, 10, seed=1)


def test_tail_report_json_fields():
    rep = TailReport(0.1, 0.2, 5, 0, 42, "markov")
    obj = rep.to_json()
    assert obj == {
        "exact_or_empirical": 0.1,
        "bound": 0.2,
        "n": 5,
        "trials": 0,
        "seed": 42,
        "method": "markov",
        "stderr": 0.0,
    }
