import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

from csqpt import fock
from csqpt.errors import TruncationWarning, ValidationError

np_rng = np.random.default_rng(20260813)


def test_fock_state_orthonormal():
    for n in range(6):
        ket = fock.fock_state(n, 8)
        assert ket.dtype == np.complex128
        assert abs(np.linalg.norm(ket) - 1) < 1e-15
    assert abs(fock.fock_state(1, 8) @ fock.fock_state(3, 8)) == 0


def test_fock_state_bounds():
    with pytest.raises(ValidationError):
        fock.fock_state(8, 8)
    with pytest.raises(ValidationError):
        fock.fock_state(-1, 8)
    # dim follows the shared integer rule: a bool or a fraction is refused,
    # a whole float counts
    for dim in (True, 2.5, "4", 0, fock.MAX_DIM + 1):
        with pytest.raises(ValidationError, match="dim"):
            fock.fock_state(0, dim)
    assert np.array_equal(fock.fock_state(1, 3.0), fock.fock_state(1, 3))


def test_coherent_amplitudes_match_series():
    # oracle: c_n = exp(-|a|^2/2) a^n / sqrt(n!) via math.factorial
    alpha = 0.7 - 0.4j
    ket = fock.coherent_state(alpha, 24)
    raw = np.array(
        [np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
         for n in range(24)]
    )
    raw /= np.linalg.norm(raw)
    assert np.abs(ket - raw).max() < 1e-14


def test_coherent_overlap():
    # |<a|b>|^2 = exp(-|a-b|^2), far below truncation error at dim 40
    a = fock.coherent_state(0.9 + 0.2j, 40)
    b = fock.coherent_state(-0.3 + 0.5j, 40)
    expected = np.exp(-abs((0.9 + 0.2j) - (-0.3 + 0.5j)) ** 2)
    assert abs(abs(a.conj() @ b) ** 2 - expected) < 1e-12


def test_coherent_truncation_warns():
    with pytest.warns(TruncationWarning):
        fock.coherent_state(3.0, 10)


@pytest.mark.parametrize("alpha, dim", [
    (40.0, 32), (1e200, 32), (29.0, 32), (26.7, 1), (np.nan, 4), (1j * np.inf, 4),
])
def test_coherent_state_refuses_unrepresentable_alpha(alpha, dim):
    # the kept probability underflows (or |alpha|^2 overflows): refused with
    # |alpha| and dim named, before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"\|alpha\|=.* at dim={dim}:"):
            fock.coherent_state(alpha, dim)
    # just inside the normal range the state is still kept, at unit norm
    with pytest.warns(TruncationWarning):
        ket = fock.coherent_state(28.9, 32)
    assert abs(np.linalg.norm(ket) - 1) < 1e-12


def test_displacement_unitary_and_vacuum():
    for alpha in (0.3, -1.2 + 0.8j, 1.5):
        D = fock.displacement(alpha, 32)
        assert np.abs(D.conj().T @ D - np.eye(32)).max() < 1e-12
        ket = D @ fock.fock_state(0, 32)
        assert np.abs(ket - fock.coherent_state(alpha, 32)).max() < 1e-10
    # grid corner: the truncated-generator exponential deviates from the
    # analytic series only near the Fock edge
    ket = fock.displacement(1.5 + 1.5j, 32) @ fock.fock_state(0, 32)
    ref = fock.coherent_state(1.5 + 1.5j, 32)
    assert np.abs(ket - ref)[:24].max() < 1e-10
    assert np.abs(ket - ref).max() < 1e-8


def _expm_displacement(alpha, dim):
    # oracle: scipy's expm of the truncated generator, sharing no code with
    # the quadrature path
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 64), st.floats(0, 3), st.floats(-np.pi, np.pi))
@example(1, 0.0, 0.0)
@example(1, 3.0, 1.0)
@example(64, 0.0, 0.0)
@example(64, 3.0, np.pi / 4)
def test_displacement_matches_expm(dim, r, theta):
    # fast path vs slow oracle: both are the truncated exponential, <= 1e-13
    alpha = r * np.exp(1j * theta)
    d = fock.displacement(alpha, dim)
    assert np.abs(d - _expm_displacement(alpha, dim)).max() <= 1e-13
    assert np.abs(d.conj().T @ d - np.eye(dim)).max() <= 1e-13


def test_quadrature_cache_read_only_and_bounded():
    lam, w = fock._quadrature(9)
    for arr in (lam, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # a returned displacement is the caller's own array
    d = fock.displacement(0.4j, 9)
    d[:] = 0
    assert np.abs(fock.displacement(0.4j, 9) - _expm_displacement(0.4j, 9)).max() <= 1e-13
    for dim in range(2, 2 + fock.CACHE_ENTRIES + 2):
        fock.displacement(0.1, dim)
    info = fock._quadrature.cache_info()
    assert info.currsize == info.maxsize == fock.CACHE_ENTRIES


def test_displacement_inverse():
    alpha = 0.8 - 0.5j
    D = fock.displacement(alpha, 24)
    Dm = fock.displacement(-alpha, 24)
    assert np.abs(D.conj().T - Dm).max() < 1e-12
    assert np.abs(fock.displacement(0.0, 24) - np.eye(24)).max() < 1e-14


def test_displacement_composition_phase():
    # D(a)D(b) = exp(i Im(a conj(b))) D(a+b); checked on low Fock inputs at a
    # dimension large enough that truncation sits below the 1e-6 bound
    dim = 64
    for _ in range(4):
        a = (np_rng.uniform(-1.5, 1.5) + 1j * np_rng.uniform(-1.5, 1.5))
        b = (np_rng.uniform(-1.5, 1.5) + 1j * np_rng.uniform(-1.5, 1.5))
        lhs = fock.displacement(a, dim) @ fock.displacement(b, dim)
        rhs = np.exp(1j * np.imag(a * np.conj(b))) * fock.displacement(a + b, dim)
        for n in range(6):
            ket = fock.fock_state(n, dim)
            assert np.linalg.norm((lhs - rhs) @ ket) < 1e-6


def test_snap_diagonal():
    thetas = np.array([0.3, -1.1, 2.0])
    S = fock.snap(thetas, 6)
    assert np.abs(S - np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0, 0, 0, 0])))).max() < 1e-15
    assert np.abs(fock.snap(np.zeros(4), 6) - np.eye(6)).max() == 0


def test_snap_too_long():
    with pytest.raises(ValidationError):
        fock.snap(np.zeros(7), 6)


def test_parity():
    # P|alpha> = |-alpha> for the parity P = diag((-1)^n)
    ket = np.diag((-1.0) ** np.arange(40)) @ fock.coherent_state(0.6 + 0.3j, 40)
    assert np.abs(ket - fock.coherent_state(-0.6 - 0.3j, 40)).max() < 1e-12


def test_truncated_coherent_trace_is_poisson_mass():
    # trace of the 6-level block of |alpha><alpha| at alpha=1.5 equals the
    # Poisson(2.25) mass through n=5, up to the dim-32 renormalization
    ket = fock.coherent_state(1.5, 32)
    rho = np.outer(ket, ket.conj())
    block = rho[:6, :6]
    expected = poisson.cdf(5, 2.25) / poisson.cdf(31, 2.25)
    assert abs(np.trace(block).real - expected) < 1e-12
    assert abs(np.trace(block).real - 0.97263) < 5e-5
