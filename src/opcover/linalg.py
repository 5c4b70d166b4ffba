"""Spectral calculus for Hermitian matrices.

Everything here works on plain complex ndarrays.  Matrix functions go
through a full eigendecomposition (no Pade/Krylov shortcuts): dimensions
in this package are tiny and the eigenbasis is reused by callers.

Conventions: entropies and divergences are reported in bits, `herm_log`
defaults to base 2.  Logarithms of singular PSD matrices are taken on
the support (kernel eigenvalues contribute zero).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Tolerances used across the package.  PSD checks are relative to the
# spectral norm; never compare eigenvalues to exact zero.
PSD_TOL = 1e-9
HERM_TOL = 1e-10
LN2 = math.log(2.0)

# Resource caps, all decided by require_size: the side D of one dense
# matrix (a count of dim x dim matrices shares its D^2 entries), sequence
# spaces a^n, types, exact-tail multisets, brute-force product edges and
# multisets walked, conjecture-probe instances, and draws listed one by one.
MAX_TENSOR_DIM = 4096
MAX_SEQUENCE_SPACE = 1_000_000
MAX_TYPES = 5_000_000
MAX_ENUMERATION = 2_000_000
MAX_BRUTEFORCE_EDGES = 20
MAX_BRUTEFORCE_MULTISETS = 5_000_000
MAX_PROBE_COUNT = 100_000
MAX_MATERIALIZED_DRAWS = 1_000_000


class BoundViolation(RuntimeError):
    """A proven inequality failed numerically; indicates a bug upstream."""


class DomainError(ValueError):
    """A parameter lies outside the domain its statement holds on.

    `param` names the offending argument (as the CLI params spell it),
    so a caller can point at the field; matrix and distribution validity
    failures stay plain ValueErrors.
    """

    def __init__(self, message: str, param: str):
        super().__init__(message)
        self.param = param


def require_positive(**values) -> None:
    """Raise DomainError naming the first keyword argument that is not > 0."""
    for param, value in values.items():
        if not value > 0:
            raise DomainError(f"{param} must be positive", param)


def require_size(param: str, size, cap: int, message: str | None = None, exponent: int = 1):
    """Return size**exponent, or raise DomainError(param) past cap: the one size-cap comparison.

    With size >= 2, exponent > cap.bit_length() is refused before the power is formed.
    """
    if exponent > cap.bit_length() and size >= 2 or size**exponent > cap:
        power = size if exponent == 1 else f"{size}^{exponent}"
        raise DomainError(message or f"{param} too large: {power} exceeds the cap {cap}", param)
    return size**exponent


def check_bound(name: str, observed, bound, tol=0) -> None:
    """Raise BoundViolation(name) unless observed <= bound + tol: the one proven-bound comparison.

    A NaN on either side fails and an infinite bound passes; a lower
    bound passes its two sides swapped.  The integer default tol keeps
    exact (Fraction) sides exact.
    """
    if not observed <= bound + tol:
        raise BoundViolation(f"{name}: {observed} not <= {bound}" + (f" + {tol}" if tol else ""))


def require_matrices(dim: int, count: int = 1, param: str = "dim") -> None:
    """Refuse `count` dense dim x dim matrices beyond one MAX_TENSOR_DIM^2 budget.

    An oversized dim alone is named "dim", the count `param`.
    """
    require_positive(dim=dim)
    require_size("dim", dim, MAX_TENSOR_DIM)
    require_size(param, count * dim * dim, MAX_TENSOR_DIM**2)


def require_finite(a, param: str) -> None:
    """Raise DomainError naming `param` unless every entry of a is finite."""
    if not np.isfinite(np.asarray(a)).all():
        raise DomainError(f"{param} must be finite", param)


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitize(a) -> np.ndarray:
    """Average away the anti-Hermitian part of a matrix or stack (numerical hygiene only)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return (m + m.conj().swapaxes(-1, -2)) / 2


def is_hermitian(a, tol: float = HERM_TOL) -> bool:
    m = as_matrix(a)
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    return bool(np.abs(m - m.conj().T).max(initial=0.0) <= tol * scale)


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a)
    if not is_hermitian(m, HERM_TOL):
        raise ValueError(f"{name} is not Hermitian within {HERM_TOL}")
    return hermitize(m)


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    w, u = np.linalg.eigh(hermitize(a))
    return w, u


def spectral_norm(a) -> float:
    w = np.linalg.eigvalsh(hermitize(a))
    return float(np.abs(w).max(initial=0.0))


def min_eigenvalue(a) -> float:
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def spectral_tolerance(w):
    """PSD tolerance PSD_TOL * max(1, max|w|) read off a spectrum w.

    For a stack of spectra (..., d) it returns one tolerance per spectrum.
    """
    return PSD_TOL * np.maximum(1.0, np.abs(w).max(axis=-1))


def psd_margin(a) -> tuple:
    """Least eigenvalue and PSD tolerance of a matrix, or of each matrix of a stack.

    One eigensolve; a passes is_psd exactly when the least eigenvalue is
    >= -tolerance, so callers that report the margin need no second solve.
    """
    w = np.linalg.eigvalsh(hermitize(a))
    return w[..., 0], spectral_tolerance(w)


def is_psd(a) -> np.bool_ | np.ndarray:
    """Whether a matrix, or each matrix of a stack (..., d, d), is PSD.

    One eigensolve; the tolerance comes from that same spectrum
    (spectral_tolerance).  Returns a numpy bool of the leading shape.
    """
    least, tol = psd_margin(a)
    return least >= -tol


def psd_leq(a, b) -> np.bool_ | np.ndarray:
    """Loewner order a <= b up to the PSD tolerance; stacks broadcast like b - a."""
    return is_psd(np.subtract(b, a))


def relative_margin(x, lo: float, hi: float) -> tuple:
    """Slacks of lo * 1 <= x <= hi * 1 for a matrix, or for each matrix of a stack.

    One eigensolve gives (least eigenvalue - lo, hi - greatest eigenvalue,
    inside), each of the leading shape; inside says that both slacks are
    >= -PSD_TOL.  The tolerance is flat, not scaled by the spectrum:
    callers pass x whitened, x = W (B - S) W with W invertible, where W
    and the shift S map A and C onto lo * 1 and hi * 1.  Congruence keeps
    the PSD order, so x decides A <= B <= C from one spectrum, and the
    slacks are relative to that interval.  An empty matrix has infinite
    slacks.
    """
    w = np.linalg.eigvalsh(hermitize(x))
    lower = w.min(axis=-1, initial=np.inf) - lo
    upper = hi - w.max(axis=-1, initial=-np.inf)
    return lower, upper, (lower >= -PSD_TOL) & (upper >= -PSD_TOL)


def compositions(n: int, k: int, chunk: int):
    """Count vectors of the multisets of n draws from k kinds, in lexicographic order.

    Yields (rows, k) intp arrays of at most `chunk` rows.  The counts are
    the gaps between k - 1 bars placed among n + k - 1 slots (stars and
    bars), and itertools.combinations places them in lexicographic order.
    """
    bars = itertools.combinations(range(n + k - 1), k - 1)
    while block := list(itertools.islice(bars, chunk)):
        rows = len(block)
        cuts = np.empty((rows, k + 1), dtype=np.intp)
        cuts[:, 0], cuts[:, -1] = -1, n + k - 1
        flat = itertools.chain.from_iterable(block)
        cuts[:, 1:-1] = np.fromiter(flat, np.intp, rows * (k - 1)).reshape(rows, k - 1)
        counts = cuts[:, 1:] - cuts[:, :-1]
        counts -= 1
        yield counts


def require_density(rho, name: str = "rho") -> np.ndarray:
    m = require_hermitian(rho, name=name)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"{name} has trace {tr}, expected 1")
    if not is_psd(m):
        raise ValueError(f"{name} has a negative eigenvalue beyond tolerance")
    return m


def _clamped_eigs(a, name: str) -> tuple[np.ndarray, np.ndarray]:
    # Eigenvalues in (-tol, 0) are clamped to zero; anything more negative
    # is a hard error for sqrt/log/inverse-type functions.
    w, u = np.linalg.eigh(hermitize(a))
    if w[0] < -spectral_tolerance(w):
        raise ValueError(f"{name}: negative eigenvalue {w[0]} below tolerance")
    return np.clip(w, 0.0, None), u


def herm_fn(a, fn) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix eigenvalue-wise."""
    w, u = eigh(a)
    return hermitize((u * fn(w)) @ u.conj().T)


def herm_exp(a) -> np.ndarray:
    """Natural matrix exponential of a Hermitian matrix."""
    return herm_fn(a, np.exp)


def herm_sqrt(a) -> np.ndarray:
    w, u = _clamped_eigs(a, "sqrt")
    return hermitize((u * np.sqrt(w)) @ u.conj().T)


def herm_log(a, base: float = 2.0) -> np.ndarray:
    """Matrix logarithm on the support; kernel eigenvalues map to 0.

    Defaults to base 2 (the reporting convention for rates).  Pass
    ``base=math.e`` for the natural log.
    """
    w, u = _clamped_eigs(a, "log")
    out = np.zeros_like(w)
    pos = w > 0
    out[pos] = np.log(w[pos]) / math.log(base)
    return hermitize((u * out) @ u.conj().T)


def herm_power(a, s: float) -> np.ndarray:
    """A**s on the support; kernel eigenvalues stay 0 for every s (pinv convention)."""
    w, u = _clamped_eigs(a, "power")
    out = np.zeros_like(w)
    pos = w > 0
    out[pos] = w[pos] ** s
    return hermitize((u * out) @ u.conj().T)


def abs_herm(a) -> np.ndarray:
    """Spectral absolute value |A| = sqrt(A^2)."""
    return herm_fn(a, np.abs)


def trace_norm(a) -> float:
    w = np.linalg.eigvalsh(hermitize(a))
    return float(np.abs(w).sum())


def _canonical_difference(rho, sigma) -> np.ndarray:
    # IEEE subtraction is sign-symmetric, so flipping the sign of the
    # difference by its first nonzero entry makes trace_distance(r, s)
    # and trace_distance(s, r) operate on the identical float matrix.
    diff = as_matrix(rho) - as_matrix(sigma)
    for z in diff.ravel():
        if z.real != 0.0:
            return diff if z.real > 0 else -diff
        if z.imag != 0.0:
            return diff if z.imag > 0 else -diff
    return diff


def trace_distance(rho, sigma) -> float:
    """Full 1-norm distance sum |eig(rho - sigma)| (no 1/2 factor)."""
    return trace_norm(hermitize(_canonical_difference(rho, sigma)))


def von_neumann_entropy(rho) -> float:
    """Entropy of a density matrix in bits."""
    w = np.linalg.eigvalsh(require_density(rho))
    w = np.clip(w, 0.0, 1.0)
    pos = w > 1e-15
    return float(-(w[pos] * np.log2(w[pos])).sum())


def shannon_entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    pos = p > 1e-15
    return float(-(p[pos] * np.log2(p[pos])).sum())


def check_distribution(p, size: int) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape != (size,):
        raise ValueError(f"distribution has length {p.size}, expected {size}")
    # written so that a NaN weight fails both tests
    if not p.min(initial=0.0) >= -1e-12:
        raise ValueError("distribution weights must be nonnegative numbers")
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"distribution weights sum to {total}, expected 1")
    # clip stray negatives and renormalize so numpy's multinomial never
    # rejects the vector
    return np.maximum(p, 0.0) / float(np.maximum(p, 0.0).sum())


def binary_divergence(a: float, m: float) -> float:
    """D(a || m) between Bernoulli parameters, in bits.

    Infinite divergences (m at 0 or 1 with a != m, or a outside the
    support of m) come back as math.inf rather than raising.
    """
    if not 0.0 <= a <= 1.0 or not 0.0 <= m <= 1.0:
        raise ValueError("binary divergence needs parameters in [0, 1]")
    if m in (0.0, 1.0):
        return 0.0 if a == m else math.inf
    out = 0.0
    if a > 0.0:
        out += a * math.log2(a / m)
    if a < 1.0:
        out += (1.0 - a) * math.log2((1.0 - a) / (1.0 - m))
    return out


def divergence_quadratic_bound(x: float, mu: float) -> float:
    """Lower bound x^2 * mu / (2 ln 2) on D((1+x)mu || mu), in bits.

    Holds for -1/2 <= x <= 0 at every mu.  For x > 0 it fails at small mu,
    up to mu ~ 0.031 at x = 0.1 and mu ~ 0.116 at x = 1/2 (mu = 0.05,
    x = 1/2: D = 0.00828 bits against 0.00902); there it is only an estimate.
    """
    return x * x * mu / (2.0 * LN2)


def operator_divergence(a, m) -> np.ndarray:
    """Two-sided operator divergence between effects, in bits.

    sqrt(A)(log A - log M)sqrt(A) + sqrt(1-A)(log(1-A) - log(1-M))sqrt(1-A)
    with base-2 logs; A may touch 0 or 1 (support convention), M may not.
    """
    a = require_hermitian(a, name="A")
    m = require_hermitian(m, name="M")
    if a.shape != m.shape:
        raise ValueError("A and M must have equal dimensions")
    eye = np.eye(a.shape[0])
    if not relative_margin(a, 0.0, 1.0)[2]:
        raise ValueError("A must satisfy 0 <= A <= 1")
    wm = np.linalg.eigvalsh(m)
    if wm[0] <= PSD_TOL or wm[-1] >= 1.0 - PSD_TOL:
        raise ValueError("M must have eigenvalues strictly inside (0, 1)")

    def half(x, y):
        # sqrt(x) annihilates ker(x), so the support convention in
        # herm_log(x) yields the correct limit of x_eps -> x.
        r = herm_sqrt(x)
        return r @ (herm_log(x) - herm_log(y)) @ r

    return hermitize(half(a, m) + half(eye - a, eye - m))


def is_projector(p) -> bool:
    m = as_matrix(p)
    if not is_hermitian(m, 1e-9):
        return False
    scale = max(1.0, spectral_norm(m))
    return spectral_norm(m @ m - m) <= 1e-9 * scale


def gentle_projection(rho, pi) -> tuple[np.ndarray, float]:
    """Clip a (sub)normalized state to a projector's range.

    Returns (pi @ rho @ pi, sqrt(8 * lam)) where lam = 1 - Tr(rho pi).
    The guaranteed 1-norm bound is re-checked on the way out.
    """
    r = require_hermitian(rho, name="rho")
    p = as_matrix(pi)
    if not is_projector(p):
        raise ValueError("pi is not an orthogonal projector within 1e-9")
    if not is_psd(r):
        raise ValueError("rho must be PSD")
    lam = 1.0 - float(np.trace(r @ p).real)
    lam = min(1.0, max(0.0, lam))
    clipped = hermitize(p @ r @ p)
    bound = math.sqrt(8.0 * lam)
    actual = trace_norm(r - clipped)
    check_bound("gentle projection 1-norm exceeds sqrt(8 lam)", actual, bound, 1e-9)
    return clipped, bound


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D arrays, bitwise equal to numpy.kron(a, b).

    Entry (i, k), (j, l) is a[i, j] * b[k, l], the one product numpy.kron
    forms too, without its general-rank set-up.
    """
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def kron_all(mats) -> np.ndarray:
    """Left-to-right Kronecker product of square matrices, from the 1 x 1 complex identity.

    Each step is one kron, so the result is bitwise the chain of numpy.kron calls.
    """
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = kron(out, as_matrix(m))
    return out


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def commutator_norm(a, b) -> float:
    a = as_matrix(a)
    b = as_matrix(b)
    return frobenius(a @ b - b @ a)


# ---------------------------------------------------------------------------
# JSON wire format for matrices: {"dim": d, "re": [[...]], "im": [[...]]}


def matrix_to_json(a) -> dict:
    m = as_matrix(a)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    # "im" may be omitted for real matrices.
    im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"matrix payload shape mismatch for dim {dim}")
    return re + 1j * im
