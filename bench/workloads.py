"""Seeded op decks for the three benchmark workloads.

A deck is a list of blocks; a block is a fixed mix of ops, and an op is
a plain ``opcover.cli.run`` config.  Every matrix, channel, hypergraph
and input law is generated here from the workload seed and written into
the config explicitly, so the program never draws its own instances and
the same seed always yields byte-identical configs.

Instance hardness is fixed by construction, never by redrawing slow
instances.  The knobs are the module constants below and are repeated
in README.md.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("tails", "capacities", "resolvability")
BLOCKS = 64  # the timed loop cycles the deck if it ever runs out

# Hypergraph edges have every eigenvalue in [EDGE_FLOOR, 1].  The floor
# caps the exact covering number at ceil(1 / EDGE_FLOOR**n); without it a
# single d=2, m=2, n=[1, 2] product-cover op can run for minutes.
EDGE_FLOOR = 0.2
# Capacity channels are qubit states whose Bloch vectors sit near a
# randomly rotated regular configuration (antipodal pair, triangle,
# tetrahedron), jittered by BLOCH_JITTER, with lengths in BLOCH_LENGTH.
# Such channels converge in about 10-200 Blahut-Arimoto rounds; plain
# random densities instead have an unbounded tail (18k rounds in 40
# draws).  DUP_SHARE of the channels add a near-duplicate of input 0,
# W_dup = (1 - DUP_SEPARATION) W_0 + DUP_SEPARATION * identity / 2,
# which lifts the round count to about 600-1000 (it scales as
# 1 / DUP_SEPARATION).
BLOCH_JITTER = 0.1
BLOCH_LENGTH = (0.8, 0.95)
DUP_SHARE = 0.25
DUP_SEPARATION = 0.02
# Exact-enumeration tails: n per atom count, chosen so that each op walks
# several hundred compositions and enumeration, not validation, dominates.
# The ranges are narrow (700-970 compositions) because op_ms.p90 sits in
# the slow end of these ops: wider ranges (560-1540) gave it a 12%
# spread over five seeds.  Monte Carlo ops likewise keep n * trials within 2x.
EXACT_N = {3: (36, 40), 4: (15, 16)}
MC_N = (15, 20)
MC_TRIALS = (12_000, 16_000)
TYPICALITY_ALPHA = 3.0

_ZERO = np.array([[1.0, 0.0], [0.0, 0.0]])
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def make_deck(workload: str, seed: int) -> list[list[dict]]:
    """BLOCKS blocks of configs for one workload, all derived from seed."""
    if workload not in _BLOCK_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.Generator(np.random.PCG64(seed))
    build = _BLOCK_BUILDERS[workload]
    return [build(rng, b) for b in range(BLOCKS)]


def make_defect_probe(workload: str, seed: int) -> list[dict]:
    """Ops of the workload's kind that fail at this commit, from seed.

    They hit known defects (README.md, "Known defects are probed") and run once
    after the timed loop, so that the failures show with a count that
    does not depend on how many ops fit in the timed window.
    """
    if workload not in _DEFECT_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    return _DEFECT_BUILDERS[workload](rng)


def deck_bytes(deck) -> bytes:
    """Canonical serialization, for byte-identity checks."""
    return json.dumps(deck, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# instance primitives (independent of opcover.rng on purpose: the inputs
# must not move when the program's own random helpers change)


def _matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _haar(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _spectral(rng, d: int, lo: float, hi: float) -> np.ndarray:
    """Hermitian matrix with Haar eigenbasis and eigenvalues in [lo, hi]."""
    u = _haar(rng, d)
    m = (u * rng.uniform(lo, hi, size=d)) @ u.conj().T
    return (m + m.conj().T) / 2


def _density(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _op(command: str, kind: str, params: dict, rng) -> dict:
    return {"kind": kind, "config": {"command": command, "params": params, "seed": _seed(rng)}}


# ---------------------------------------------------------------------------
# tails: operator Chernoff / Markov / Chebyshev tails


def _rv(rng, d: int, atoms: int, lo: float, hi: float):
    probs = rng.dirichlet(np.ones(atoms))
    values = [_spectral(rng, d, lo, hi) for _ in range(atoms)]
    mean = sum(p * v for p, v in zip(probs, values))
    spec = {"kind": "matrices", "probs": probs.tolist(), "values": [_matrix(v) for v in values]}
    return spec, np.linalg.eigvalsh((mean + mean.conj().T) / 2)


def _exact_chernoff(rng, side: str) -> dict:
    d, atoms = int(rng.integers(2, 4)), int(rng.integers(3, 5))
    n = int(rng.integers(EXACT_N[atoms][0], EXACT_N[atoms][1] + 1))
    spec, w = _rv(rng, d, atoms, 0.0, 1.0)
    gap = float(rng.uniform(0.05, 0.2))
    if side == "upper":  # mean <= m 1 <= a 1
        m = min(1.0, float(w[-1]) + 1e-6)
        a = min(1.0, m + gap)
    else:  # a 1 <= m 1 <= mean
        m = max(0.0, float(w[0]) - 1e-6)
        a = max(0.0, m - gap)
    params = {"rv": spec, "method": f"chernoff-{side}", "n": n, "a": a, "m": m}
    return _op("tail-mc", f"exact-{side}", params, rng)


def _mc(rng, method: str) -> dict:
    d, atoms = int(rng.integers(2, 4)), int(rng.integers(3, 5))
    n = int(rng.integers(MC_N[0], MC_N[1] + 1))
    trials = int(rng.integers(MC_TRIALS[0], MC_TRIALS[1] + 1))
    spec, w = _rv(rng, d, atoms, 0.1, 0.9)
    if method == "two-sided":
        params = {"rv": spec, "method": method, "n": n, "eps": float(rng.uniform(0.1, 0.5)),
                  "trials": trials}
    else:
        m = min(1.0, float(w[-1]) + 1e-6)
        params = {"rv": spec, "method": method, "n": n, "m": m,
                  "a": min(1.0, m + float(rng.uniform(0.02, 0.1))), "trials": trials}
    return _op("tail-mc", f"mc-{method}", params, rng)


def _single_shot(rng, method: str) -> dict:
    d, atoms = int(rng.integers(2, 4)), int(rng.integers(3, 5))
    spec, _ = _rv(rng, d, atoms, 0.0, 1.0)
    # The schema types both operators as plain numbers.
    key = "a" if method == "markov" else "delta"
    params = {"rv": spec, "method": method, key: float(rng.uniform(0.5, 1.0))}
    return _op("tail-mc", method, params, rng)


def _tails_block(rng, b: int) -> list[dict]:
    return [
        *(_exact_chernoff(rng, "upper") for _ in range(3)),
        *(_exact_chernoff(rng, "lower") for _ in range(3)),
        _mc(rng, "two-sided"),
        _mc(rng, "chernoff-upper"),
    ]


def _tails_defects(rng) -> list[dict]:
    return [_single_shot(rng, method) for method in ("markov", "chebyshev") for _ in range(2)]


# ---------------------------------------------------------------------------
# capacities: covering capacity, product covering numbers, Holevo capacity


def _hypergraph(rng, d: int, m: int) -> dict:
    edges = [_matrix(_spectral(rng, d, EDGE_FLOOR, 1.0)) for _ in range(m)]
    return {"dim": d, "eta": 1.0, "edges": edges}


def _product_cover(rng, d: int, m: int, n_values: list[int], kind: str) -> dict:
    params = {"hypergraph": _hypergraph(rng, d, m), "n_values": n_values}
    return _op("product-cover", kind, params, rng)


def _cover_sample(rng) -> dict:
    d, m = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    params = {"hypergraph": _hypergraph(rng, d, m),
              "eps": float(rng.uniform(0.1, 0.3)), "tau": float(rng.uniform(0.1, 0.3))}
    return _op("cover-sample", "cover-sample", params, rng)


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_REGULAR = {
    2: np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
    3: np.array([[1.0, 0.0, 0.0], [-0.5, 0.75**0.5, 0.0], [-0.5, -(0.75**0.5), 0.0]]),
    4: np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / 3**0.5,
}


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _capacity(rng, duplicate: bool) -> dict:
    inputs = int(rng.integers(2, 4 if duplicate else 5))
    vecs = _REGULAR[inputs] @ _rotation(rng).T
    vecs = vecs + BLOCH_JITTER * rng.standard_normal(vecs.shape)
    vecs *= rng.uniform(*BLOCH_LENGTH, size=(inputs, 1)) / np.linalg.norm(vecs, axis=1, keepdims=True)
    if duplicate:
        vecs = np.vstack([vecs, (1.0 - DUP_SEPARATION) * vecs[:1]])
    states = [(np.eye(2) + np.tensordot(v, _PAULI, axes=1)) / 2 for v in vecs]
    params = {"channel": {"kind": "states", "states": [_matrix(s) for s in states]}}
    return _op("capacity", "capacity-dup" if duplicate else "capacity", params, rng)


def _capacities_block(rng, b: int) -> list[dict]:
    # Sorted by cost: 7 cover-sample and 9 plain capacity ops (15-35 ms,
    # op_ms.p50 falls among them), 3 near-duplicate capacity ops (50-105
    # ms), 1 product cover (120-700 ms, broadly spread).  op_ms.p90 falls
    # at the 67th percentile of the near-duplicate ops, a tight cluster;
    # with 3 product covers in 20 it fell inside their broad spread and
    # moved by 12% between seeds.
    dups = round(12 * DUP_SHARE)
    return [
        *(_cover_sample(rng) for _ in range(7)),
        *(_capacity(rng, False) for _ in range(12 - dups)),
        *(_capacity(rng, True) for _ in range(dups)),
        _product_cover(rng, 2, 2, [1, 2], "product-cover-d2"),
    ]


def _capacities_defects(rng) -> list[dict]:
    # The subgradient-undershoot regime (ROADMAP 3a): about a third break
    # 2^C <= c_tilde_1.
    return [_product_cover(rng, 3, m, [1], "product-cover-d3") for _ in range(4) for m in (4, 4, 5)]


# ---------------------------------------------------------------------------
# resolvability: dense d^n x d^n algebra


def _qubit_channel(rng, zero_plus: bool) -> dict:
    states = [_ZERO, _PLUS] if zero_plus else [_density(rng, 2) for _ in range(2)]
    return {"kind": "states", "states": [_matrix(s) for s in states]}


def _sparse_law(rng, n: int, support: int) -> dict:
    picks = sorted(int(i) for i in rng.choice(2**n, size=support, replace=False))
    weights = rng.dirichlet(np.ones(support))
    weights /= weights.sum()
    atoms = [[[(i >> (n - 1 - k)) & 1 for k in range(n)], float(w)] for i, w in zip(picks, weights)]
    return {"kind": "explicit", "atoms": atoms}


def _resolvability(rng, n: int, zero_plus: bool, sparse: int | None) -> dict:
    law = {"kind": "uniform", "n": n} if sparse is None else _sparse_law(rng, n, sparse)
    params = {"channel": _qubit_channel(rng, zero_plus), "P": law,
              "lambda": float(rng.choice([0.5, 0.6, 0.7]))}
    kind = f"resolvability-n{n}-{'sparse' if sparse else 'uniform'}"
    return _op("resolvability", kind, params, rng)


def _typicality(rng, n: int, mode: str) -> dict:
    if mode == "state":
        params = {"mode": "state", "alpha": TYPICALITY_ALPHA, "state": _matrix(_density(rng, 2)),
                  "n": n}
    else:
        seq = [int(x) for x in rng.integers(0, 2, size=n)]
        params = {"mode": "conditional", "alpha": TYPICALITY_ALPHA,
                  "channel": _qubit_channel(rng, False), "sequence": seq}
    return _op("typicality", f"typicality-n{n}-{mode}", params, rng)


def _qid_eval(rng) -> dict:
    n, messages = 3, int(rng.integers(2, 4))
    entries = []
    for _ in range(messages):
        law = _sparse_law(rng, n, int(rng.integers(1, 5)))
        entries.append({"P": law["atoms"], "D": _matrix(_spectral(rng, 2**n, 0.0, 1.0))})
    params = {"channel": _qubit_channel(rng, True), "code": {"n": n, "entries": entries}}
    return _op("qid-eval", "qid-eval", params, rng)


def _resolvability_block(rng, b: int) -> list[dict]:
    # One typicality op at n=10 per 20-op block, alternating state and
    # conditional mode, so op_ms.p90 falls inside the cluster of n=6-7
    # resolvability ops rather than on a cluster edge.  (n=11 conditional
    # ops swing from 0.3 to 1.5 s and 430 MB with the sequence drawn.)
    heavy = _typicality(rng, 10, "state" if b % 2 == 0 else "conditional")
    return [
        *(_qid_eval(rng) for _ in range(4)),
        _resolvability(rng, 5, True, None),
        _resolvability(rng, 5, False, None),
        _resolvability(rng, 6, True, None),
        _resolvability(rng, 6, False, None),
        _resolvability(rng, 6, False, int(rng.integers(8, 17))),
        _resolvability(rng, 7, True, int(rng.integers(8, 17))),
        _resolvability(rng, 7, False, int(rng.integers(8, 17))),
        *(_typicality(rng, 9, "state") for _ in range(4)),
        *(_typicality(rng, 9, "conditional") for _ in range(4)),
        heavy,
    ]


_BLOCK_BUILDERS = {
    "tails": _tails_block,
    "capacities": _capacities_block,
    "resolvability": _resolvability_block,
}
_DEFECT_BUILDERS = {
    "tails": _tails_defects,
    "capacities": _capacities_defects,
    "resolvability": lambda rng: [],
}
