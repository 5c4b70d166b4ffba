"""Operator tail bounds, hypergraph coverings, and cq-channel experiments."""

__version__ = "0.1.0"

from .channels import (
    CQChannel,
    capacity,
    conditional_typical_projector,
    conditional_typical_projectors,
    cross_typical_mass,
    embed_classical,
    typical_projector,
    typical_projectors,
    typical_set,
)
from .cli import RunRecord, run, sweep
from .concentration import (
    OperatorRV,
    chebyshev_tail,
    chernoff_tail,
    conjecture_probe,
    markov_tail,
    two_sided_chernoff,
    weak_law_tail,
)
from .covering import (
    QuantumHypergraph,
    covering_capacity,
    product_covering_table,
    quantum_covering_sample,
)
from .identification import (
    QIDCode,
    approximation_preserves_id,
    code_count_bound,
    evaluate_qid_code,
    resolution_probe,
    resolvability_regularize,
    strong_converse_bound,
    uniform_distribution,
)
from .linalg import BoundViolation, DomainError

__all__ = [
    "BoundViolation",
    "CQChannel",
    "DomainError",
    "OperatorRV",
    "QIDCode",
    "QuantumHypergraph",
    "RunRecord",
    "approximation_preserves_id",
    "capacity",
    "chebyshev_tail",
    "chernoff_tail",
    "code_count_bound",
    "conditional_typical_projector",
    "conditional_typical_projectors",
    "conjecture_probe",
    "covering_capacity",
    "cross_typical_mass",
    "embed_classical",
    "evaluate_qid_code",
    "markov_tail",
    "product_covering_table",
    "quantum_covering_sample",
    "resolution_probe",
    "resolvability_regularize",
    "run",
    "strong_converse_bound",
    "sweep",
    "two_sided_chernoff",
    "uniform_distribution",
    "typical_projector",
    "typical_projectors",
    "typical_set",
    "weak_law_tail",
]
