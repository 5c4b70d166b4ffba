"""Seeded randomness.

All stochastic entry points in this package take an explicit integer
seed and build a Philox counter-based generator from it.  Sub-streams
(per retry, per sweep run, per type class) are derived by SeedSequence
spawning, so results never depend on execution order or worker count.
A dimension or support size below 1, or a dimension past
linalg.MAX_TENSOR_DIM, raises linalg.DomainError.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """The first n child seeds of seed_stream(seed)."""
    return list(itertools.islice(seed_stream(seed), n))


def seed_stream(seed: int):
    """Child seeds of a root seed as plain ints, spawned one at a time, without end.

    SeedSequence numbers its children by position, so the k-th child
    does not depend on how many are drawn after it.
    """
    root = np.random.SeedSequence(int(seed))
    while True:
        yield int(root.spawn(1)[0].generate_state(1, np.uint64)[0])


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    linalg.require_matrices(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix phases so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    linalg.require_matrices(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitize(z)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    linalg.require_matrices(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitize(z @ z.conj().T)


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random operator with spectrum drawn uniformly from [0, 1]."""
    u = haar_unitary(rng, dim)
    w = rng.uniform(0.0, 1.0, size=dim)
    return linalg.hermitize((u * w) @ u.conj().T)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = random_psd(rng, dim)
    return m / np.trace(m).real


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    u = haar_unitary(rng, dim)[:, :rank]
    return linalg.hermitize(u @ u.conj().T)


def random_distribution(rng: np.random.Generator, k: int) -> np.ndarray:
    linalg.require_positive(k=k)
    return rng.dirichlet(np.ones(k))
