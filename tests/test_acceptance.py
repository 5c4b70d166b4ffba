"""End-to-end acceptance battery.

One test per acceptance criterion.  Each prints a single PASS or FAIL
line (run with -s to see them on success) and enforces the stated
instance counts, tolerances, and wall-clock budgets.  Everything here
re-checks results against independent in-test computations; none of it
trusts a library self-report it could recompute.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from opcover import cli, linalg
from opcover.channels import (
    CQChannel,
    capacity,
    conditional_typical_projector,
    cross_typical_mass,
    embed_classical,
    tensor_output,
    typical_projector,
    typical_set,
)
from opcover.concentration import (
    OperatorRV,
    chebyshev_tail,
    chernoff_tail,
    conjecture_probe,
    markov_tail,
)
from opcover.covering import (
    QuantumHypergraph,
    covering_capacity,
    covering_randomized,
    covering_size_bounds,
    is_covering,
    product_covering_table,
    quantum_covering_sample,
    random_hypergraph,
)
from opcover.identification import (
    QIDCode,
    approximation_preserves_id,
    code_count_bound,
    quantization_resolution,
    random_sparse_distribution,
    resolvability_regularize,
    strong_converse_bound,
    type_class_conditionals,
    uniform_distribution,
)
from opcover.linalg import LN2
from opcover.rng import (
    make_rng,
    random_density,
    random_distribution,
    random_effect,
    random_hermitian,
    random_projector,
    spawn_seeds,
)

from oracles import binom_tail_ge, classical_capacity_oracle, dense_projector

KET0 = np.diag([1.0, 0.0])
KET1 = np.diag([0.0, 1.0])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}", flush=True)
        raise
    print(f"criterion {num:2d} PASS  {desc}", flush=True)


def binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def binary_divergence_bits(a: float, m: float) -> float:
    # independent copy of the exponent, written from the definition
    def term(x, y):
        return 0.0 if x == 0.0 else x * math.log2(x / y)

    return term(a, m) + term(1.0 - a, 1.0 - m)


# ---------------------------------------------------------------------------


def test_01_operator_chernoff_validity():
    start = time.perf_counter()
    seeds = spawn_seeds(910, 1000)
    nontrivial = 0
    with criterion(1, "operator Chernoff tail within bound on 1000 seeded instances"):
        for i, seed in enumerate(seeds):
            rng = make_rng(seed)
            dim = 1 + i % 3
            atoms = [random_effect(rng, dim) for _ in range(2 + i % 2)]
            rv = OperatorRV(random_distribution(rng, len(atoms)), atoms)
            mean = rv.mean()
            m_hi = min(1.0, linalg.spectral_norm(mean))
            m_lo = max(0.0, linalg.min_eigenvalue(mean))
            u = float(rng.random())
            if i % 2 == 0 or m_lo < 0.05:
                side, m = "upper", m_hi
                a = min(1.0, m + (0.35 + 0.45 * u) * (1.0 - m))
            else:
                side, m = "lower", m_lo
                a = m * (0.2 + 0.45 * u)
            if i < 900:
                n, trials = 1 + i % 10, 0
            else:
                n, trials = 20 + (7 * i) % 181, 10_000
            report = chernoff_tail(rv, n, a, m, side, trials, seed)
            if report.bound < 1.0:
                nontrivial += 1
                assert report.probability <= report.bound + 1e-9, (
                    f"instance {i}: tail {report.probability} > bound {report.bound}"
                )
        assert nontrivial >= 300
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_02_classical_reduction():
    with criterion(2, "d=1 reduction matches the binary divergence exponent and binomial oracle"):
        # exponent agreement on a (m, a, n) grid, dimension factor 1
        for m in (0.1, 0.25, 0.5, 0.7):
            for a in (m + 0.1, m + 0.2, min(0.99, m + 0.45)):
                for n in (1, 7, 50):
                    rv = OperatorRV.scalar([1.0 - m, m], [0.0, 1.0])
                    report = chernoff_tail(rv, n, a, m)
                    lemma = 2.0 ** (-n * binary_divergence_bits(a, m))
                    assert report.bound == pytest.approx(lemma, rel=1e-12)

        # Bernoulli(1/2), n = 50, a = 0.75: exact binomial tail, k >= 38
        rv = OperatorRV.scalar([0.5, 0.5], [0.0, 1.0])
        report = chernoff_tail(rv, 50, 0.75, 0.5)
        oracle = float(binom_tail_ge(50, 38))
        assert report.probability == pytest.approx(oracle, rel=1e-12)
        assert report.probability == pytest.approx(1.5293200080179759e-4, rel=1e-12)
        assert 1e-4 < report.probability < 2.4e-4
        assert report.bound == pytest.approx(2.0 ** (-50.0 * binary_divergence_bits(0.75, 0.5)), rel=1e-12)
        assert report.probability <= report.bound <= 1.45e-3


def test_03_markov_chebyshev():
    with criterion(3, "Markov and Chebyshev dominate exact enumeration on 1000 instances"):
        seeds = spawn_seeds(930, 1000)
        for i, seed in enumerate(seeds):
            rng = make_rng(seed)
            dim = 1 + i % 3
            atoms = [random_effect(rng, dim) for _ in range(2 + i % 2)]
            rv = OperatorRV(random_distribution(rng, len(atoms)), atoms)
            u = float(rng.random())
            if i % 2 == 0:
                t = (0.3 + 1.5 * u) * max(1e-3, linalg.spectral_norm(rv.mean()))
                report = markov_tail(rv, t * np.eye(dim))
            else:
                s = (0.3 + 1.2 * u) * max(1e-3, math.sqrt(linalg.spectral_norm(rv.variance())))
                report = chebyshev_tail(rv, s * np.eye(dim))
            if math.isfinite(report.bound):
                assert report.probability <= min(1.0, report.bound) + 1e-9

        # scalar worked examples
        markov = markov_tail(OperatorRV.scalar([0.1, 0.9], [2.0, 0.0]), np.array([[1.0]]))
        assert markov.probability == pytest.approx(0.1, abs=1e-12)
        assert markov.bound == pytest.approx(0.2, abs=1e-12)
        cheb = chebyshev_tail(OperatorRV.scalar([0.5, 0.5], [0.0, 1.0]), np.array([[0.4]]))
        assert cheb.probability == pytest.approx(1.0, abs=1e-12)
        assert cheb.bound == pytest.approx(1.5625, abs=1e-12)


def test_04_golden_thompson_and_conjecture_one():
    with criterion(4, "Golden-Thompson within 1e-9 on 1000 pairs; n=2 mixed form on 1000 more"):
        seeds = spawn_seeds(940, 1000)
        for i, seed in enumerate(seeds):
            rng = make_rng(seed)
            dim = 2 + i % 3
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            lhs = float(np.trace(linalg.herm_exp(a + b)).real)
            rhs = float(np.trace(linalg.herm_exp(a) @ linalg.herm_exp(b)).real)
            assert lhs <= rhs + 1e-9

        probe = conjecture_probe(1, 2, 1000, seed=941)
        assert probe.instances == 1000
        assert probe.violations == 0
        assert probe.min_slack >= -1e-9


def test_05_quantum_covering():
    start = time.perf_counter()
    with criterion(5, "quantum covering guarantees recheck on 50 qubit/qutrit instances"):
        eps = tau = 0.1
        budget = (eps + tau) + math.sqrt(8.0 * (eps + tau))
        seeds = spawn_seeds(950, 50)
        certified = 0
        l1_armed = 0
        for i, seed in enumerate(seeds):
            rng = make_rng(seed)
            dim = 2 + i % 2
            k = 2 + i % 3
            if i % 2 == 0:
                g = random_hypergraph(seed, dim, k)
            else:
                # rank-one projector edges: equal traces arm the l1 bound
                g = QuantumHypergraph(dim, [random_projector(rng, dim, 1) for _ in range(k)], 1.0)
            p = random_distribution(rng, k)
            result = quantum_covering_sample(g, p, eps, tau, seed=seed)
            if not result.certified:
                continue
            certified += 1
            mix = g.edge_average(p)
            # excluded mass: the split-off subspace carries at most tau
            assert float(np.trace(mix @ result.pi0).real) <= tau + 1e-9
            # sandwich inequalities on the kept subspace
            pi1 = result.pi1
            proj_avg = pi1 @ result.sampled_average @ pi1
            proj_mix = pi1 @ mix @ pi1
            assert linalg.min_eigenvalue(proj_avg - (1.0 - eps) * proj_mix) >= -1e-9
            assert linalg.min_eigenvalue((1.0 + eps) * proj_mix - proj_avg) >= -1e-9
            # draw count within the formula unless escalation pushed past it
            if not result.beyond_bound:
                formula = 1.0 + g.eta * g.dim * (2.0 * LN2 * math.log2(2.0 * g.dim)) / (eps * eps * tau)
                assert result.num_draws <= formula + 1e-9
            traces = g.edge_traces()
            if traces.max() - traces.min() <= 1e-12 and traces.max() <= 1.0 + 1e-12:
                l1_armed += 1
                assert linalg.trace_norm(mix - result.sampled_average) <= budget + 1e-9
        assert certified >= 30
        assert l1_armed >= 10
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_06_covering_capacity_and_product_numbers():
    start = time.perf_counter()
    with criterion(6, "covering capacity, product covering chain, randomized size bound"):
        pair = QuantumHypergraph(2, [KET0, KET1], 1.0)
        cap = covering_capacity(pair)
        assert cap.bits == pytest.approx(1.0, abs=1e-6)
        rows = product_covering_table(pair, [1, 2, 3])
        assert [r["c_n"] for r in rows] == [2, 4, 8]
        for n, row in zip((1, 2, 3), rows):
            assert row["c_tilde_n"] == pytest.approx(2.0**n, abs=1e-4)

        for seed in spawn_seeds(960, 20):
            g = random_hypergraph(seed, dim=2, num_edges=2)
            cap = covering_capacity(g, tol=1e-10)
            for row in product_covering_table(g, [1, 2], tol=1e-9):
                n, c_n, ct = row["n"], row["c_n"], row["c_tilde_n"]
                assert c_n is not None and ct is not None
                assert 2.0 ** (cap.bits * n) <= ct + 1e-6
                assert ct <= c_n + 1e-6
                # randomized covering size bound for product hypergraphs
                upper = 1.0 + 8.0 * LN2 * math.log2(float(g.dim**n)) * 2.0 ** (cap.bits * n)
                assert c_n <= upper + 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 180.0, f"took {elapsed:.1f}s"


def test_07_capacity():
    with criterion(7, "capacity vs closed form, grid oracle, classical fixed point"):
        bsc = embed_classical([[0.89, 0.11], [0.11, 0.89]])
        assert capacity(bsc).bits == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-6)

        # pure-state pair: Holevo value is the mixture entropy, scanned on a grid
        pure = CQChannel([KET0, PLUS])
        ps = np.linspace(0.0, 1.0, 100_001)
        det = 0.5 * ps * (1.0 - ps)
        lam = (1.0 + np.sqrt(np.clip(1.0 - 4.0 * det, 0.0, 1.0))) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -(lam * np.log2(lam) + (1 - lam) * np.log2(np.clip(1 - lam, 1e-300, 1.0)))
        ent = np.nan_to_num(ent)
        grid_best = float(ent.max())
        got = capacity(pure).bits
        assert got == pytest.approx(grid_best, abs=1e-3)
        assert got == pytest.approx(0.600876, abs=1e-3)

        for i, seed in enumerate(spawn_seeds(970, 20)):
            rng = make_rng(seed)
            rows = np.stack([random_distribution(rng, 2 + i % 3) for _ in range(2 + i % 2)])
            ch = embed_classical(rows)
            assert capacity(ch, tol=1e-9).bits == pytest.approx(
                classical_capacity_oracle(rows, tol=1e-8), abs=1e-6
            )


def test_08_typicality():
    with criterion(8, "typicality trace bounds, commutation, classical reduction"):
        # headline unconditional case: mass >= 1 - d/alpha^2 = 0.5
        proj = typical_projector(np.diag([0.75, 0.25]), 10, 2.0)
        assert proj.mass_bound == pytest.approx(0.5, abs=1e-12)
        assert proj.trace_mass >= 0.5

        rng = make_rng(980)
        for trial in range(6):
            dim = 2 + trial % 2
            n = 4 + trial % 3
            alpha = (1.0, 1.5, 2.0)[trial % 3]
            rho = random_density(rng, dim)
            proj = typical_projector(rho, n, alpha)
            assert proj.trace_mass + 1e-12 >= proj.mass_bound
            assert proj.trace_mass + 1e-12 >= 1.0 - dim / alpha**2
            ref = linalg.kron_all([rho] * n)
            assert linalg.commutator_norm(dense_projector(proj), ref) <= 1e-9 * ref.shape[0]

        channel = CQChannel([random_density(rng, 2) for _ in range(2)])
        for trial, alpha in enumerate((1.0, 1.5, 2.5)):
            xn = tuple(int(s) for s in rng.integers(0, 2, size=5))
            cproj = conditional_typical_projector(channel, xn, alpha)
            assert cproj.trace_mass + 1e-12 >= cproj.mass_bound
            assert cproj.trace_mass + 1e-12 >= 1.0 - 2 * 2 / alpha**2
            ref = tensor_output(xn, channel)
            assert linalg.commutator_norm(dense_projector(cproj), ref) <= 1e-9 * ref.shape[0]
            # cross form: the widened unconditional projector keeps the
            # conditional mass guarantee
            mass, wide = cross_typical_mass(channel, xn, alpha)
            assert mass + 1e-9 >= 1.0 - 2 * 2 / alpha**2
            assert wide.alpha == pytest.approx(alpha * math.sqrt(2.0))

        # diagonal channel: projector diagonal equals the classical
        # conditional typical set indicator, entry for entry
        w = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        ch = embed_classical(w)
        xn = (0, 1, 1, 0)
        alpha = 1.5
        dproj = conditional_typical_projector(ch, xn, alpha)
        indicator = np.real(np.diagonal(dense_projector(dproj))).round(12)
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

        # unconditional diagonal case against the classical typical set
        p = (0.3, 0.7)
        uproj = typical_projector(np.diag(p), 4, 1.2)
        picked = {
            divmod_seq
            for flat, v in enumerate(np.real(np.diagonal(dense_projector(uproj))).round(12))
            if v == 1.0
            for divmod_seq in [tuple(int(c) for c in np.unravel_index(flat, (2,) * 4))]
        }
        assert picked == typical_set(p, 4, 1.2)


def test_09_gentle_projection():
    with criterion(9, "gentle projection sqrt(8 lambda) on 500 instances, zero violations"):
        violations = 0
        for i, seed in enumerate(spawn_seeds(990, 500)):
            rng = make_rng(seed)
            dim = 2 + i % 3
            rho = random_density(rng, dim)
            if i % 2 == 0:
                pi = random_projector(rng, dim, 1 + int(rng.integers(dim)))
            else:
                # high-mass projector: top eigenvectors, small lambda branch
                vals, vecs = linalg.eigh(rho)
                keep = vecs[:, -(1 + i % dim):]
                pi = keep @ keep.conj().T
            clipped, bound = linalg.gentle_projection(rho, pi)  # self-checks too
            if linalg.trace_norm(rho - clipped) > bound + 1e-9:
                violations += 1
            lam = max(0.0, 1.0 - float(np.trace(rho @ pi).real))
            assert bound == pytest.approx(math.sqrt(8.0 * lam), abs=1e-12)
        assert violations == 0


def test_10_resolvability_pipeline():
    with criterion(10, "resolvability pipeline at a=2 d=2 n=4 lambda=0.6 plus ID preservation"):
        channel = CQChannel([KET0, PLUS])
        P = uniform_distribution(2, 4)
        start = time.perf_counter()
        reg = resolvability_regularize(P, channel, 0.6, seed=1001)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"
        k_formula = math.ceil(Fraction(3 * (4 + 1) ** 2) / Fraction("0.6"))
        assert k_formula == 125
        assert reg.K == 125 == quantization_resolution(4, 2, 0.6)
        assert reg.support_size <= reg.K * reg.L

        # identical-output channel: the sparse law reproduces the output
        same = CQChannel([np.diag([0.3, 0.7]), np.diag([0.3, 0.7])])
        reg_same = resolvability_regularize(uniform_distribution(2, 4), same, 0.6, seed=1002)
        assert reg_same.measured_distance <= 1e-9

        # ID error preservation on every seeded run
        for seed in spawn_seeds(1003, 5):
            sub = spawn_seeds(seed, 4)
            entries = []
            for k in range(2):
                dist = random_sparse_distribution(sub[2 * k], 2, 3, 2)
                effect = random_effect(make_rng(sub[2 * k + 1]), 8)
                entries.append((dist, effect))
            code = QIDCode(3, entries)
            regs = [
                resolvability_regularize(
                    dist, channel, 0.6, seed=sub[k],
                    alpha=1e6, eps=0.45, tau=0.45, draws=2048,
                )
                for k, (dist, _) in enumerate(entries)
            ]
            approximation_preserves_id(code, channel, regs)  # raises on violation

        # recombination identity, exact over rationals
        from opcover.channels import EmpiricalDistribution, type_enumerate

        recombined = {}
        classes = type_class_conditionals(P, 2)
        for t in type_enumerate(4, 2):
            if t.counts not in classes:
                continue
            mass = sum(
                Fraction(w) for xn, w in P.items()
                if EmpiricalDistribution.from_sequence(xn, 2).counts == t.counts
            )
            assert classes[t.counts][0] == mass
            for xn, w in classes[t.counts][1].items():
                recombined[xn] = recombined.get(xn, Fraction(0)) + mass * w
        assert recombined == {xn: Fraction(w) for xn, w in P.items()}


def test_11_double_exponential_arithmetic():
    with criterion(11, "exact rational strong-converse and extended-precision code counts"):
        value = strong_converse_bound(100, 0.6, 0.01)
        assert value == Fraction(61)
        assert isinstance(value, Fraction)

        # power-of-two alphabet: plain integer arithmetic, no rounding
        exact = code_count_bound(125, 4_107_538_847_763, 2, 4)
        assert exact == 4 * 1 * 125 * 4_107_538_847_763
        assert isinstance(exact, int)
        assert code_count_bound(125, 10, 4, 7) == 2 * code_count_bound(125, 10, 2, 7)

        # odd alphabet: extended precision against an independent recompute
        got = code_count_bound(125, 4_107_538_847_763, 3, 4)
        with mpmath.workdps(120):
            expected = mpmath.mpf(4) * mpmath.log(3, 2) * 125 * 4_107_538_847_763
            assert abs(got - expected) / expected < mpmath.mpf(10) ** -30


def test_12_harness_determinism(monkeypatch):
    with criterion(12, "harness reruns byte-identically with 1 and 8 workers"):
        config = {
            "command": "resolvability",
            "params": {
                "channel": {"kind": "zero-plus"},
                "P": {"kind": "uniform", "n": 3},
                "lambda": 0.6,
                "alpha": 1e6,
                "eps": 0.45,
                "tau": 0.45,
                "draws": 512,
            },
            "seed": 11,
        }
        single = [cli.canonical_json(cli.run(config).results) for _ in range(2)]
        assert single[0] == single[1]

        template = {
            "command": "product-cover",
            "params": {"hypergraph": {"kind": "orthogonal-pair"}, "n_values": [1]},
            "seed": 7,
        }
        outputs = []
        for workers in ("1", "8"):
            monkeypatch.setenv("OPCOVER_THREADS", workers)
            records, text = cli.sweep(template, "params.n_values", [[1], [2], [3]])
            outputs.append((text, [cli.canonical_json(r.results) for r in records]))
        assert outputs[0] == outputs[1]


def test_13_randomized_covering_lemma():
    start = time.perf_counter()
    with criterion(13, "randomized covering: i.i.d. draws cover, within the mixture size bound"):
        within = 0
        for i, seed in enumerate(spawn_seeds(965, 40)):
            rng = make_rng(seed)
            dim, k = 2 + i % 2, 2 + i % 3
            if i % 2 == 0:
                g = random_hypergraph(seed, dim, k)
            else:
                g = QuantumHypergraph(dim, [random_projector(rng, dim, 1 + j % dim) for j in range(k)], 1.0)
            p = np.full(k, 1.0 / k) if i % 4 < 2 else random_distribution(rng, k)
            mix = sum(w * e for w, e in zip(p, g.edges))
            mu = float(np.linalg.eigvalsh(linalg.hermitize(mix))[0])
            result = covering_randomized(g, p, seed)
            drawn = [e for e, c in sorted(result.edge_multiplicities.items()) for _ in range(c)]
            assert len(drawn) == result.num_draws
            assert is_covering(g, drawn)
            # independently: the drawn edges sum above the identity
            total = sum(g.edges[e] for e in drawn)
            assert float(np.linalg.eigvalsh(linalg.hermitize(total - np.eye(dim)))[0]) >= -1e-9
            # the size guarantee, recomputed from the mixture's least eigenvalue
            bounds = covering_size_bounds(g, p)
            assert bounds["min_eig"] == pytest.approx(1.0 + 8.0 * LN2 * math.log2(dim) / mu, rel=1e-9)
            if not result.beyond_bound:
                within += 1
                assert result.num_draws <= bounds["min_eig"]
            if i % 4 < 2:
                assert bounds["uniform_degree"] == pytest.approx(bounds["min_eig"], rel=1e-9)
        assert within >= 30
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
