"""Library parameter domains: every range check raises DomainError naming its parameter.

The CLI schema checks only the shape of a config, so these checks are
the one place a parameter range is decided; the CLI reports `param` as
the last element of the field path.
"""

import math
import time

import numpy as np
import pytest

from opcover import channels, concentration, covering, identification, linalg, rng
from opcover.channels import CQChannel
from opcover.concentration import OperatorRV
from opcover.covering import QuantumHypergraph
from opcover.linalg import DomainError

ZERO = np.diag([1.0, 0.0])
PLUS = np.full((2, 2), 0.5)
EYE = np.eye(2)


def _channel() -> CQChannel:
    return CQChannel([ZERO, PLUS])


def _graph() -> QuantumHypergraph:
    return QuantumHypergraph(2, [0.5 * EYE, 0.25 * EYE], 1.0)


def _rv() -> OperatorRV:
    return OperatorRV([0.5, 0.5], [0.2 * EYE, 0.6 * EYE])


def _resolve(**overrides):
    kwargs = {"alpha": 3.0, "eps": 0.45, "tau": 0.45, "draws": 4, **overrides}
    lam = kwargs.pop("lam", 0.6)
    return identification.resolvability_regularize({(0, 1): 1.0}, _channel(), lam, 1, **kwargs)


CASES = [
    ("dim", lambda: rng.haar_unitary(rng.make_rng(1), 0)),
    ("dim", lambda: rng.random_hermitian(rng.make_rng(1), 0)),
    ("dim", lambda: rng.random_psd(rng.make_rng(1), 0)),
    ("dim", lambda: rng.random_effect(rng.make_rng(1), 0)),
    ("dim", lambda: rng.random_density(rng.make_rng(1), -1)),
    ("dim", lambda: rng.random_density(rng.make_rng(1), 0)),
    ("dim", lambda: rng.random_projector(rng.make_rng(1), 0, 0)),
    ("k", lambda: rng.random_distribution(rng.make_rng(1), 0)),
    ("inputs", lambda: channels.random_channel(1, 0, 2)),
    ("dim", lambda: channels.random_channel(1, 2, 0)),
    ("tol", lambda: channels.capacity(_channel(), tol=0.0)),
    ("max_iter", lambda: channels.capacity(_channel(), max_iter=0)),
    ("n", lambda: channels.typical_projector(ZERO, 0, 1.0)),
    ("alpha", lambda: channels.typical_projector(ZERO, 2, -1.0)),
    ("alpha", lambda: channels.typical_projector(ZERO, 2, math.nan)),
    ("sequence", lambda: channels.conditional_typical_projector(_channel(), [0, 2], 1.0)),
    ("atoms", lambda: OperatorRV.random(1, 2, 0)),
    ("dim", lambda: OperatorRV.random(1, 0, 2)),
    ("trials", lambda: concentration.two_sided_chernoff(_rv(), 3, 0.2, trials=-1)),
    ("a", lambda: concentration.markov_tail(_rv(), -0.5 * EYE)),
    ("delta", lambda: concentration.chebyshev_tail(_rv(), 0.0 * EYE)),
    ("n", lambda: concentration.weak_law_tail(_rv(), 0, 0.1 * EYE)),
    ("delta", lambda: concentration.weak_law_tail(_rv(), 2, -0.1 * EYE)),
    ("n", lambda: concentration.chernoff_tail(_rv(), 0, 0.8, 0.6)),
    ("a", lambda: concentration.chernoff_tail(_rv(), 2, 1.5, 0.6)),
    ("m", lambda: concentration.chernoff_tail(_rv(), 2, 0.8, -0.1)),
    ("a", lambda: concentration.chernoff_tail(_rv(), 2, 0.5, 0.6)),
    ("a", lambda: concentration.chernoff_tail(_rv(), 2, 0.5, 0.1, side="lower")),
    ("n", lambda: concentration.two_sided_chernoff(_rv(), 0, 0.2)),
    ("eps", lambda: concentration.two_sided_chernoff(_rv(), 2, 0.7)),
    ("which", lambda: concentration.conjecture_probe(4, 2, 1, 1)),
    ("dim", lambda: concentration.conjecture_probe(1, 0, 1, 1)),
    ("dim", lambda: concentration.conjecture_probe(1, 7, 1, 1)),
    ("count", lambda: concentration.conjecture_probe(1, 2, 0, 1)),
    ("count", lambda: concentration.conjecture_probe(1, 2, concentration.MAX_PROBE_COUNT + 1, 1)),
    ("dim", lambda: QuantumHypergraph(0, [EYE], 1.0)),
    ("eta", lambda: QuantumHypergraph(2, [0.5 * EYE], 0.0)),
    ("eta", lambda: QuantumHypergraph(2, [0.5 * EYE], -1.0)),
    ("num_edges", lambda: covering.random_hypergraph(1, 2, 0)),
    ("eta", lambda: covering.random_hypergraph(1, 2, 2, eta=0.0)),
    ("eta", lambda: covering.random_hypergraph(1, 2, 2, eta=1.5)),
    ("eta", lambda: covering.random_hypergraph(1, 2, 2, eta=math.nan)),
    ("dim", lambda: covering.random_hypergraph(1, 0, 2)),
    ("eps", lambda: covering.quantum_covering_sample(_graph(), [0.5, 0.5], 0.0, 0.5, 1)),
    ("tau", lambda: covering.quantum_covering_sample(_graph(), [0.5, 0.5], 0.5, -1.0, 1)),
    ("draws", lambda: covering.quantum_covering_sample(_graph(), [0.5, 0.5], 0.5, 0.5, 1, draws=0)),
    # a negative eps on a diagonal (classical) graph
    ("eps", lambda: covering.quantum_covering_sample(
        QuantumHypergraph(2, [np.diag([0.5, 0.5])], 1.0), [1.0], -0.1, 0.5, 1)),
    ("n", lambda: covering.product_hypergraph(_graph(), 0)),
    ("n_values", lambda: covering.product_covering_table(_graph(), [1, 0])),
    ("tol", lambda: covering.covering_capacity(_graph(), 1e-12)),
    # a family with a common kernel is refused too, not only the LP
    ("tol", lambda: covering.covering_capacity(QuantumHypergraph(2, [ZERO], 1.0), 1e-12)),
    ("tol", lambda: covering.generalized_covering_number(_graph(), 1, 1e-12)),
    ("n", lambda: identification.uniform_distribution(2, 0)),
    ("n", lambda: identification.random_sparse_distribution(1, 2, 0, 1)),
    ("support", lambda: identification.random_sparse_distribution(1, 2, 2, 0)),
    ("support", lambda: identification.random_sparse_distribution(1, 2, 2, 5)),
    ("messages", lambda: identification.random_qid_code(1, _channel(), 1, 0, 1)),
    ("n", lambda: identification.random_qid_code(1, _channel(), 0, 1, 1)),
    ("n", lambda: identification.QIDCode(0, [({(0,): 1.0}, 0.5 * EYE)])),
    ("lambda", lambda: identification.quantization_resolution(2, 2, 1.0)),
    ("lambda", lambda: _resolve(lam=0.0)),
    ("lambda", lambda: _resolve(lam=math.nan)),
    ("alpha", lambda: _resolve(alpha=0.0)),
    ("eps", lambda: _resolve(eps=0.0)),
    ("tau", lambda: _resolve(tau=0.0)),
    ("tau", lambda: _resolve(tau=-0.5)),
    ("draws", lambda: _resolve(draws=0)),
    ("a", lambda: concentration.markov_tail(_rv(), math.nan * EYE)),
    ("delta", lambda: concentration.chebyshev_tail(_rv(), math.nan * EYE)),
    ("delta", lambda: concentration.weak_law_tail(_rv(), 2, np.diag([math.inf, 0.1]))),
    # resource caps: a size past its cap is a domain error of the parameter that sets it
    ("sequence", lambda: channels.tensor_output([0] * 13, _channel())),
    ("n", lambda: channels.type_enumerate(40, 20)),
    ("n", lambda: channels.typical_set([0.25] * 4, 11, 1.0)),
    ("n", lambda: channels.typical_projector(np.eye(3) / 3.0, 10**7, 1.0)),
    ("sequence", lambda: channels.conditional_typical_projector(_channel(), [0, 1] * 7, 1.0)),
    ("dim", lambda: rng.random_psd(rng.make_rng(1), 10**6)),
    ("dim", lambda: channels.random_channel(1, 2, 10**6)),
    ("inputs", lambda: channels.random_channel(1, 10**7, 2)),
    ("atoms", lambda: OperatorRV.random(1, 2, 10**7)),
    ("n", lambda: concentration.exact_tail(_rv(), 3 * 10**6, lambda s: s)),
    ("trials", lambda: concentration.mc_tail(_rv(), 2, 10**9, 1, lambda s: s)),
    ("num_edges", lambda: covering.random_hypergraph(1, 2, 10**8)),
    # 2^9 edges of side 2^9: small dimension, too many entries
    ("n", lambda: covering.product_hypergraph(_graph(), 9)),
    ("n", lambda: covering.covering_number_bruteforce(_graph(), 5)),
    # c_4 = 1, but its 16 product edges would be 4096 x 4096 each
    ("n", lambda: covering.covering_number_bruteforce(
        QuantumHypergraph(8, [np.eye(8), 0.5 * np.eye(8)], 1.0), 4)),
    # the orthogonal pair's LP floor k >= 16 at n = 4 is C(31, 16) multisets
    ("n", lambda: covering.covering_number_bruteforce(
        QuantumHypergraph(2, [ZERO, EYE - ZERO], 1.0), 4)),
    ("n", lambda: identification.uniform_distribution(2, 21)),
    ("n", lambda: identification.random_sparse_distribution(1, 2, 21, 1)),
    ("n", lambda: identification.random_qid_code(1, _channel(), 19, 1, 1)),
    ("messages", lambda: identification.random_qid_code(1, _channel(), 12, 2, 1)),
    ("code", lambda: identification.evaluate_qid_code(
        identification.QIDCode(13, [({(0,) * 13: 1.0}, 0.5 * EYE)]), _channel())),
    ("P", lambda: identification.resolvability_regularize({(0,) * 13: 1.0}, _channel(), 0.6, 1)),
    ("n", lambda: identification.code_count_bound(2, 2, 2, 0)),
    ("sequence", lambda: channels.product_mixture({(0,) * 13: 1.0}, _channel())),
    ("sequence", lambda: channels.product_mixture({(0, 2): 1.0}, _channel())),
    ("atoms", lambda: identification.check_sequence_distribution({(0, 2): 1.0}, alphabet_size=2)),
    ("atoms", lambda: identification.resolvability_regularize({(0, 5): 1.0}, _channel(), 0.6, 1)),
    ("entries", lambda: identification.QIDCode(1, [({(2,): 1.0}, 0.5 * EYE)], alphabet_size=2)),
    # a tail's premises: on the random variable (rv) or on the mean's cap (m); _rv's mean is 0.4 I
    ("rv", lambda: concentration.markov_tail(OperatorRV.scalar([0.5, 0.5], [-1.0, 0.5]), np.eye(1))),
    # a PSD mean (0.25) does not make every atom PSD
    ("rv", lambda: concentration.markov_tail(OperatorRV.scalar([0.5, 0.5], [-1.0, 1.5]), 0.8 * np.eye(1))),
    ("rv", lambda: concentration.chernoff_tail(OperatorRV.scalar([0.5, 0.5], [0.0, 2.0]), 2, 0.9, 0.9)),
    ("m", lambda: concentration.chernoff_tail(_rv(), 2, 0.8, 0.3)),
    ("m", lambda: concentration.chernoff_tail(_rv(), 2, 0.2, 0.5, side="lower")),
    ("rv", lambda: concentration.two_sided_chernoff(OperatorRV.scalar([0.5, 0.5], [0.0, 2.0]), 2, 0.2)),
    ("rv", lambda: concentration.two_sided_chernoff(OperatorRV([0.5, 0.5], [ZERO, ZERO]), 2, 0.2)),
    # the trials x atoms count matrix: 2 x 10^7 entries, though trials x n is only 2 x 10^4
    ("trials", lambda: concentration.mc_tail(_many_atoms(), 2, 10_000, 1, lambda s: s)),
    # scalar range checks of the type machinery and the identification bounds
    ("n", lambda: channels.typical_set([0.5, 0.5], 0, 1.0)),
    ("alpha", lambda: channels.typical_set([0.5, 0.5], 2, -1.0)),
    ("alpha", lambda: channels.cross_typical_mass(_channel(), [0, 1], 0.0)),
    ("n", lambda: channels.type_enumerate(0, 2)),
    ("a", lambda: channels.type_enumerate(2, 0)),
    ("K", lambda: identification.quantize_distribution([0.5, 0.5], 0)),
    ("n", lambda: identification.quantization_resolution(0, 2, 0.5)),
    ("a", lambda: identification.quantization_resolution(2, 1.5, 0.5)),
    ("L", lambda: identification.code_count_bound(2, 0, 2, 3)),
    ("n", lambda: identification.strong_converse_bound(0, 0.5, 0.1)),
    ("c_bits", lambda: identification.strong_converse_bound(2, -0.5, 0.1)),
    ("delta", lambda: identification.strong_converse_bound(2, 0.5, 0.0)),
    ("eps", lambda: covering.sample_family([_graph()], [[0.5, 0.5]], 0.0, 0.3, 1)),
    ("n", lambda: channels.EmpiricalDistribution(0, (0,))),
    ("side", lambda: concentration.chernoff_tail(_rv(), 2, 0.8, 0.5, side="middle")),
]


def _many_atoms() -> OperatorRV:
    return OperatorRV.scalar(np.full(2000, 1 / 2000), np.linspace(0.0, 1.0, 2000))


@pytest.mark.parametrize(
    "param, call", CASES, ids=[f"{i:02d}-{param}" for i, (param, _) in enumerate(CASES)]
)
def test_out_of_range_raises_domain_error_naming_param(param, call):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.param == param


def test_mc_tail_refuses_its_count_matrix_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("mc_tail drew before its size check")

    monkeypatch.setattr(concentration, "make_rng", no_draws)
    with pytest.raises(DomainError) as err:
        concentration.mc_tail(_many_atoms(), 2, 10_000, 1, lambda s: s)
    assert err.value.param == "trials"


def test_domain_error_is_a_value_error():
    err = DomainError("eps must be positive", "eps")
    assert isinstance(err, ValueError)
    assert (str(err), err.param) == ("eps must be positive", "eps")


def test_require_positive_names_the_first_failure():
    linalg.require_positive(a=1, b=0.5)
    for bad in (0, -1.0, math.nan):
        with pytest.raises(DomainError) as err:
            linalg.require_positive(a=1.0, b=bad, c=-1.0)
        assert err.value.param == "b"
        assert str(err.value) == "b must be positive"


def test_require_size_decides_powers_without_forming_them():
    assert linalg.require_size("n", 2, 4096, exponent=12) == 4096
    assert linalg.require_size("n", 1, 4096, exponent=10**9) == 1
    start = time.perf_counter()
    with pytest.raises(DomainError) as err:
        linalg.require_size("n", 3, 4096, "too big", exponent=10**12)
    assert time.perf_counter() - start < 0.01
    assert (str(err.value), err.value.param) == ("too big", "n")
    with pytest.raises(DomainError, match="count too large"):
        linalg.require_size("count", 4097, 4096)


def test_matrix_validity_stays_a_plain_value_error():
    with pytest.raises(ValueError) as err:
        CQChannel([np.diag([2.0, 0.0])])
    assert not isinstance(err.value, DomainError)
    with pytest.raises(ValueError) as err:
        QuantumHypergraph(2, [np.diag([-0.2, 0.5])], 1.0)
    assert not isinstance(err.value, DomainError)


def test_random_constructors_widen_to_one_atom():
    rv = OperatorRV.random(3, 2, 1)
    assert rv.size == 1 and rv.probs.tolist() == [1.0]
    assert channels.random_channel(3, 1, 1).states.shape == (1, 1, 1)
