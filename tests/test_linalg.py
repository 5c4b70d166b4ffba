import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcover import linalg
from opcover.linalg import BoundViolation
from opcover.rng import haar_unitary, make_rng, random_density, random_hermitian, random_projector, random_psd

from oracles import in_operator_interval

ATOL = 1e-10


def test_trace_distance_frozen_values():
    assert linalg.trace_distance(np.diag([0.75, 0.25]), np.diag([0.5, 0.5])) == pytest.approx(0.5, abs=ATOL)
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    assert linalg.trace_distance(e0, e1) == pytest.approx(2.0, abs=ATOL)
    assert linalg.trace_distance(e0, e0) == 0.0


def test_trace_distance_symmetry_is_exact():
    rng = make_rng(7)
    for _ in range(20):
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert linalg.trace_distance(a, b) == linalg.trace_distance(b, a)


def test_trace_distance_triangle_and_unitary_invariance():
    rng = make_rng(8)
    for _ in range(25):
        a, b, c = (random_density(rng, 3) for _ in range(3))
        dab = linalg.trace_distance(a, b)
        assert dab <= linalg.trace_distance(a, c) + linalg.trace_distance(c, b) + ATOL
        from opcover.rng import haar_unitary

        u = haar_unitary(rng, 3)
        rotated = linalg.trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert rotated == pytest.approx(dab, abs=ATOL)


def test_entropy_frozen_values():
    assert linalg.von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert linalg.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert linalg.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_binary_divergence_values_and_edges():
    assert linalg.binary_divergence(0.75, 0.5) == pytest.approx(0.18872187554086717, abs=1e-12)
    assert linalg.binary_divergence(1.0, 0.5) == 1.0
    assert linalg.binary_divergence(0.5, 0.5) == 0.0
    assert math.isinf(linalg.binary_divergence(0.5, 0.0))
    assert math.isinf(linalg.binary_divergence(0.5, 1.0))
    assert linalg.binary_divergence(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        linalg.binary_divergence(1.5, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=-0.5, max_value=0.0),
    mu=st.floats(min_value=1e-6, max_value=0.999),
)
def test_divergence_quadratic_lower_bound_minus_side(x, mu):
    # on the shrinking side the quadratic bound holds for every mu
    d = linalg.binary_divergence((1 + x) * mu, mu)
    assert d >= linalg.divergence_quadratic_bound(x, mu) - 1e-11


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=0.5),
    mu=st.floats(min_value=0.15, max_value=0.66),
)
def test_divergence_quadratic_lower_bound_plus_side(x, mu):
    if (1 + x) * mu > 1.0:
        mu = 1.0 / (1 + x)
    d = linalg.binary_divergence((1 + x) * mu, mu)
    assert d >= linalg.divergence_quadratic_bound(x, mu) - 1e-11


def test_divergence_quadratic_bound_fails_outside_safe_region():
    # the quadratic formula overshoots the divergence for small mu at
    # x = +1/2; callers must treat it as an approximation there
    d = linalg.binary_divergence(1.5 * 0.0625, 0.0625)
    assert d < linalg.divergence_quadratic_bound(0.5, 0.0625)


def test_matrix_functions_frozen():
    np.testing.assert_allclose(linalg.herm_log(np.diag([1.0, 2.0])), np.diag([0.0, 1.0]), atol=ATOL)
    np.testing.assert_allclose(linalg.herm_exp(np.zeros((3, 3))), np.eye(3), atol=ATOL)
    np.testing.assert_allclose(linalg.herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=ATOL)
    np.testing.assert_allclose(linalg.herm_power(np.diag([4.0, 9.0]), -1.0), np.diag([0.25, 1 / 9]), atol=ATOL)


def test_matrix_function_errors_and_support_convention():
    with pytest.raises(ValueError):
        linalg.herm_sqrt(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError):
        linalg.herm_log(np.diag([-0.5, 1.0]))
    # log on a singular PSD matrix acts on the support only
    out = linalg.herm_log(np.diag([0.0, 2.0]))
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=ATOL)
    # tiny negative eigenvalues inside tolerance are clamped, not fatal
    eps = np.diag([-1e-12, 1.0])
    assert linalg.min_eigenvalue(linalg.herm_sqrt(eps)) >= 0.0


def test_spectral_round_trip():
    rng = make_rng(11)
    for dim in (2, 5, 16):
        a = random_hermitian(rng, dim)
        w, u = linalg.eigh(a)
        back = (u * w) @ u.conj().T
        assert linalg.frobenius(back - a) <= 1e-10 * max(1.0, linalg.frobenius(a))


def test_psd_leq_basics():
    a = np.diag([0.2, 0.3])
    b = np.diag([0.2, 0.5])
    assert linalg.psd_leq(a, b)
    assert not linalg.psd_leq(b, a)
    assert linalg.psd_leq(a, a)
    # violations inside the relative tolerance still count as ordered
    assert linalg.psd_leq(a + 1e-11 * np.eye(2), a)


def test_operator_monotonicity_spot_checks():
    rng = make_rng(13)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        a = random_psd(rng, dim)
        b = a + random_psd(rng, dim)
        ra, rb = linalg.herm_sqrt(a), linalg.herm_sqrt(b)
        assert linalg.min_eigenvalue(rb - ra) >= -1e-9 * max(1, linalg.spectral_norm(rb))
        la = linalg.herm_log(a + np.eye(dim))
        lb = linalg.herm_log(b + np.eye(dim))
        assert linalg.min_eigenvalue(lb - la) >= -1e-9 * max(1, linalg.spectral_norm(lb))


def test_golden_thompson():
    rng = make_rng(17)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        lhs = np.trace(linalg.herm_exp(a + b)).real
        rhs = np.trace(linalg.herm_exp(a) @ linalg.herm_exp(b)).real
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


def test_operator_divergence_commuting_matches_binary():
    a = np.diag([0.75, 0.25])
    m = np.diag([0.5, 0.5])
    d = linalg.binary_divergence(0.75, 0.5)
    np.testing.assert_allclose(linalg.operator_divergence(a, m), np.diag([d, d]), atol=1e-10)
    np.testing.assert_allclose(linalg.operator_divergence(m, m), np.zeros((2, 2)), atol=1e-10)


def test_operator_divergence_rejects_boundary_reference():
    with pytest.raises(ValueError):
        linalg.operator_divergence(np.diag([0.5, 0.5]), np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        linalg.operator_divergence(np.diag([1.5, 0.5]), np.diag([0.5, 0.5]))


def test_gentle_projection_frozen_example():
    rho = np.diag([0.9, 0.1])
    pi = np.diag([1.0, 0.0])
    clipped, bound = linalg.gentle_projection(rho, pi)
    np.testing.assert_allclose(clipped, np.diag([0.9, 0.0]), atol=ATOL)
    assert bound == pytest.approx(math.sqrt(0.8), abs=1e-12)
    assert linalg.trace_norm(rho - clipped) == pytest.approx(0.1, abs=ATOL)


def test_gentle_projection_random_and_errors():
    rng = make_rng(23)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density(rng, dim)
        pi = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        clipped, bound = linalg.gentle_projection(rho, pi)
        assert linalg.trace_norm(rho - clipped) <= bound + 1e-9
    with pytest.raises(ValueError):
        linalg.gentle_projection(np.eye(2) / 2, 0.5 * np.eye(2))


def test_matrix_json_round_trip():
    rng = make_rng(29)
    a = random_hermitian(rng, 3)
    obj = linalg.matrix_to_json(a)
    assert obj["dim"] == 3
    np.testing.assert_array_equal(linalg.matrix_from_json(obj), a)
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})


def test_hermitian_validation():
    with pytest.raises(ValueError):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.require_density(np.diag([0.9, 0.3]))
    with pytest.raises(ValueError):
        linalg.require_density(np.diag([1.5, -0.5]))


def test_library_has_no_bare_asserts():
    # asserts vanish under python -O; proven inequalities raise BoundViolation
    import ast
    import pathlib

    src = pathlib.Path(linalg.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_check_bound_owns_every_bound_violation():
    # one owner for proven bounds: every other check in the library calls check_bound
    import ast
    import pathlib

    src = pathlib.Path(linalg.__file__).parent
    found = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        and "BoundViolation" in ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
    ]
    owner = next(
        node for node in ast.parse((src / "linalg.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "check_bound"
    )
    assert len(found) == 1
    (module, line), = found
    assert module == "linalg.py" and owner.lineno <= line <= owner.end_lineno


def test_check_bound_fails_on_nan_and_passes_an_infinite_bound():
    linalg.check_bound("b", 1.0, 1.0)
    linalg.check_bound("b", 1e308, math.inf)
    linalg.check_bound("b", math.inf, math.inf)
    linalg.check_bound("b", np.float64(0.5), np.float64(0.5))
    for observed, bound in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.inf), (math.inf, 1e308)):
        with pytest.raises(BoundViolation, match="^b: "):
            linalg.check_bound("b", observed, bound)
        with pytest.raises(BoundViolation):
            linalg.check_bound("b", observed, bound, 1e-9)


def test_check_bound_tolerance_is_one_sided():
    # the tolerance widens the bound only: observed may sit any distance below it
    linalg.check_bound("b", 1.0 + 1e-9, 1.0, 1e-9)
    linalg.check_bound("b", -1e300, 1.0, 1e-9)
    with pytest.raises(BoundViolation, match=r"^b: 1\.000000002 not <= 1\.0 \+ 1e-09$"):
        linalg.check_bound("b", 1.000000002, 1.0, 1e-9)
    # a lower bound passes its sides swapped, so its tolerance lowers the floor
    linalg.check_bound("mass", 0.9, 0.9 - 1e-10, 1e-9)
    with pytest.raises(BoundViolation, match=r"^mass: 0\.9 not <= 0\.8 \+ 1e-09$"):
        linalg.check_bound("mass", 0.9, 0.8, 1e-9)
    with pytest.raises(BoundViolation, match=r"^b: 1e-09 not <= 0\.0$"):
        linalg.check_bound("b", 1e-9, 0.0)


def test_check_bound_keeps_fractions_exact():
    third = Fraction(1, 3)
    above = third + Fraction(1, 10**30)
    assert float(above) <= float(third)  # a float comparison would pass it
    linalg.check_bound("q", third, third)
    linalg.check_bound("q", third - Fraction(1, 10**30), third)
    with pytest.raises(BoundViolation, match=r"^q: \d+/\d+ not <= 1/3$"):
        linalg.check_bound("q", above, third)


def test_psd_order_on_stacks_matches_each_matrix():
    rng = make_rng(31)
    for dim in (1, 2, 3):
        a = np.stack([random_hermitian(rng, dim) for _ in range(12)]).reshape(3, 4, dim, dim)
        b = a + np.stack([random_psd(rng, dim) - 0.1 * np.eye(dim) for _ in range(12)]).reshape(a.shape)
        x = (a + b) / 2
        got = (linalg.is_psd(b - a), linalg.psd_leq(a, b), linalg.relative_margin(x, -1.0, 1.0)[2])
        for g in got:
            assert g.shape == (3, 4)
        for i in np.ndindex(3, 4):
            assert got[0][i] == linalg.is_psd(b[i] - a[i])
            assert got[1][i] == linalg.psd_leq(a[i], b[i])
            assert got[2][i] == linalg.relative_margin(x[i], -1.0, 1.0)[2]
            assert got[2][i] == in_operator_interval(x[i], -np.eye(dim), np.eye(dim))
        # one bound broadcast against the whole stack
        bound = np.eye(dim)
        leq = linalg.psd_leq(x, bound)
        assert [bool(leq[i]) for i in np.ndindex(3, 4)] == [
            bool(linalg.psd_leq(x[i], bound)) for i in np.ndindex(3, 4)
        ]
    # violations inside the relative tolerance still count as ordered
    a = np.diag([0.2, 0.3])
    pair = np.stack([a + 1e-11 * np.eye(2), a + 1e-6 * np.eye(2)])
    assert linalg.psd_leq(pair, a).tolist() == [True, False]


def test_psd_leq_makes_one_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert linalg.psd_leq(np.diag([0.2, 0.3]), np.diag([0.2, 0.5]))
    assert calls == [(2, 2)]


# How far one eigenvalue sits past an end of [lo, hi] (negative: inside):
# well and just inside, within the 1e-9 band either side, just past the
# band, and well past it.
OFFSETS = [-0.1, -1e-6, -2e-9, -0.5e-9, 0.0, 0.5e-9, 2e-9, 1e-8, 1e-6, 0.2]


def _with_spectrum(rng, dim, lo, hi, offset, top, basis=None):
    """A Hermitian matrix with spectrum in the middle half of [lo, hi] but one end `offset` past it."""
    x = rng.uniform(lo + (hi - lo) / 4, hi - (hi - lo) / 4, size=dim)
    x[0] = hi + offset if top else lo - offset
    u = haar_unitary(rng, dim) if basis is None else basis
    return (u * x) @ u.conj().T


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_relative_margin_agrees_with_the_two_eigensolve_oracle(dim):
    # the oracle's tolerance is PSD_TOL * max(1, norm), flat on these
    # spectra, so the two agree on every case: past the band both refuse
    rng = make_rng(140 + dim)
    lo, hi = 0.7, 1.3
    for size in (1, dim):  # one scalar stack of 1 x 1 matrices, one of dim x dim
        cases = [(offset, top) for offset in OFFSETS for top in (False, True)]
        stack = np.stack([_with_spectrum(rng, size, lo, hi, offset, top) for offset, top in cases])
        lower, upper, inside = linalg.relative_margin(stack, lo, hi)
        assert inside.shape == (len(cases),)
        for i, (offset, top) in enumerate(cases):
            slack = upper[i] if top else lower[i]
            assert abs(slack + offset) <= 1e-14
            assert inside[i] == (offset <= 1e-9)
            assert inside[i] == in_operator_interval(stack[i], lo * np.eye(size), hi * np.eye(size))
            assert inside[i] == linalg.relative_margin(stack[i], lo, hi)[2]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_whitened_sandwich_agrees_with_the_oracle_outside_both_bands(dim):
    # (1 - eps) A <= B <= (1 + eps) A for A with least eigenvalue 1e-6:
    # whitened by A^-1/2, decided by one spectrum, against the oracle's
    # two differences.  They agree wherever neither decision is within
    # its tolerance; the oracle's is absolute, so a relative violation
    # along A's least direction can hide inside it.
    rng = make_rng(150 + dim)
    eps = 0.25
    lo, hi = 1.0 - eps, 1.0 + eps
    u = haar_unitary(rng, dim)
    spectrum = np.geomspace(1e-6, 1.0, dim)
    a = (u * spectrum) @ u.conj().T
    half, white = linalg.herm_power(a, 0.5), linalg.herm_power(a, -0.5)
    decisive, near = {True: 0, False: 0}, 0
    for offset in OFFSETS:
        for top in (False, True):
            # in A's eigenbasis one end lies along A's least (index 0) or
            # greatest direction; then in a random basis
            for basis in (u, u[:, ::-1], None):
                x = _with_spectrum(rng, dim, lo, hi, offset, top, basis)
                b = linalg.hermitize(half @ x @ half)
                lower, upper, inside = linalg.relative_margin(white @ b @ white, lo, hi)
                absolute = min(np.linalg.eigvalsh(b - lo * a)[0], np.linalg.eigvalsh(hi * a - b)[0])
                if min(abs(lower), abs(upper), abs(absolute)) <= 1.5e-9:
                    continue
                assert inside == in_operator_interval(b, lo * a, hi * a)
                decisive[bool(inside)] += 1
                near += min(abs(lower), abs(upper)) < 1e-8
    assert decisive[True] > 0 and decisive[False] > 0 and near > 0
    # a relative violation of 1e-4 along the least direction is 1e-10
    # absolute: inside the oracle's band, refused by the relative check
    x = _with_spectrum(rng, dim, lo, hi, 1e-4, True, u)
    b = linalg.hermitize(half @ x @ half)
    assert in_operator_interval(b, lo * a, hi * a)
    assert not linalg.relative_margin(white @ b @ white, lo, hi)[2]


def test_operator_interval_makes_one_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    stack = np.stack([0.5 * np.eye(2), 1.5 * np.eye(2), np.diag([0.5, -0.5])])
    lower, upper, inside = linalg.relative_margin(stack, 0.0, 1.0)
    assert inside.tolist() == [True, False, False]
    assert lower.tolist() == [0.5, 1.5, -0.5] and upper.tolist() == [0.5, -0.5, 0.5]
    assert calls == [(3, 2, 2)]


@pytest.mark.parametrize("n, k", [(0, 1), (5, 1), (0, 3), (4, 3), (6, 4), (1, 5)])
def test_compositions_list_every_count_vector_in_lexicographic_order(n, k):
    want = [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]
    for chunk in (1, 3, 1000):
        blocks = list(linalg.compositions(n, k, chunk))
        assert all(b.shape[1] == k and 0 < len(b) <= chunk for b in blocks)
        assert [tuple(c) for b in blocks for c in b.tolist()] == want
        assert len(blocks) == -(-len(want) // chunk)


def test_herm_sqrt_makes_one_eigensolve(monkeypatch):
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counted_eigh(m):
        calls.append("eigh")
        return eigh(m)

    def counted_eigvalsh(m):
        calls.append("eigvalsh")
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    root = linalg.herm_sqrt(np.diag([0.25, 0.0]) - 1e-12 * np.eye(2))
    assert calls == ["eigh"]
    assert np.allclose(root, np.diag([0.5, 0.0]), atol=1e-6)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        linalg.herm_sqrt(np.diag([0.25, -1e-6]))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((1, 1), (1, 1)), ((1, 1), (3, 3)), ((2, 2), (1, 1)), ((2, 2), (2, 2)),
    ((2, 3), (4, 1)), ((1, 5), (3, 2)), ((4, 4), (8, 8)),
])
def test_kron_is_bitwise_np_kron(a_shape, b_shape):
    rng = make_rng(sum(a_shape) * 10 + sum(b_shape))

    def draw(shape, kind):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

    for ka, kb in itertools.product(("real", "complex"), repeat=2):
        a, b = draw(a_shape, ka), draw(b_shape, kb)
        got = linalg.kron(a, b)
        want = np.kron(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want), (ka, kb)

