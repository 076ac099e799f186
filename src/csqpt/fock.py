"""States and operators on a truncated Fock space.

Kets are 1-D complex arrays of length ``dim``, operators are ``dim x dim``
complex arrays.  Displacements are the exponential of the truncated
generator alpha a^dag - conj(alpha) a, so they are exactly unitary on the
truncated space.  The exponential is evaluated in the generator's
eigenbasis, one ``eigh`` of the truncated a + a^dag: that is the Jacobi
matrix of the Hermite polynomials, so its eigenvalues are sqrt(2) times
the Gauss-Hermite nodes and its eigenvectors the normalized Hermite
functions at those nodes (Golub and Welsch, Math. Comp. 23, 221 (1969)).
"""

import functools
import warnings

import numpy as np

from .errors import TruncationWarning, ValidationError, read_int, read_numbers

# tail mass above which coherent_state warns about truncation loss
TAIL_WARN = 1e-6
CACHE_ENTRIES = 4  # most recent entries kept by each forward-model cache
# the largest dim: a d^2 x d^2 superoperator, csqpt's largest array, then
# takes 2^60 bytes, which numpy can count, so it raises only MemoryError
MAX_DIM = 2**14


def read_only(arr):
    arr.flags.writeable = False
    return arr


def fock_state(n, dim):
    """Number state |n> as a unit ket."""
    dim = read_int(dim, "dim", 1, high=MAX_DIM)
    ket = np.zeros(dim, dtype=complex)
    ket[read_int(n, "Fock index", 0, high=dim - 1)] = 1.0
    return ket


def coherent_state(alpha, dim):
    """Coherent state |alpha>, truncated at ``dim`` levels and renormalized.

    Amplitudes are computed from the analytic series
    c_n = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!).  Warns if the truncated
    tail carries more than ``TAIL_WARN`` probability.  Raises
    ValidationError if the kept probability is not a normal float (for a
    non-finite alpha, past |alpha| = 37.6 at any dim and past 29.0 at dim
    32), since the renormalization would then be 0 / 0 or lose bits.
    """
    dim = read_int(dim, "dim", 1, high=MAX_DIM)
    alpha = complex(read_numbers(alpha, "alpha", complex, finite=False, ndim=0))
    tiny = np.finfo(float).tiny
    kept = 0.0
    # below |alpha|^2 = -2 ln(tiny), exp(-|alpha|^2 / 2) is a normal float
    # and no alpha^n / sqrt(n!), at most exp(|alpha|^2 / 2), overflows
    if abs(alpha) < np.sqrt(-2 * np.log(tiny)):
        amps = np.empty(dim, dtype=complex)
        amps[0] = 1.0
        for n in range(1, dim):
            amps[n] = amps[n - 1] * alpha / np.sqrt(n)
        amps *= np.exp(-0.5 * abs(alpha) ** 2)
        kept = float(np.sum(np.abs(amps) ** 2))
    if not kept >= tiny:
        raise ValidationError(
            f"no coherent state with |alpha|={abs(alpha):.4g} is representable "
            f"at dim={dim}: its kept probability underflows"
        )
    tail = 1.0 - kept
    if tail > TAIL_WARN:
        warnings.warn(
            f"coherent_state(|alpha|={abs(alpha):.3f}, dim={dim}) loses "
            f"{tail:.2e} probability to truncation",
            TruncationWarning,
            stacklevel=2,
        )
    return amps / np.sqrt(kept)


@functools.lru_cache(CACHE_ENTRIES)
def _quadrature(dim):
    """Eigenvalues lam and orthonormal eigenvectors W (columns) of the
    truncated a + a^dag, read-only and cached per dim."""
    n = np.sqrt(np.arange(1.0, dim))
    lam, w = np.linalg.eigh(np.diag(n, 1) + np.diag(n, -1))
    return read_only(lam), read_only(w)


def displacement(alpha, dim):
    """Displacement unitary D(alpha) = exp(alpha a^dag - conj(alpha) a).

    With alpha = r e^{i theta} the generator is i r Q diag(lam) Q^dag for
    Q = diag(e^{i n (theta - pi/2)}) W, so D(alpha) = Q diag(e^{i r lam}) Q^dag.
    """
    dim = read_int(dim, "dim", 1, high=MAX_DIM)
    alpha = read_numbers(alpha, "alpha", complex, ndim=0)
    lam, w = _quadrature(dim)
    q = np.exp(1j * ((np.angle(alpha) - np.pi / 2) * np.arange(dim)))[:, None] * w
    return (q * np.exp(1j * (np.abs(alpha) * lam))) @ q.conj().T


def snap(thetas, dim):
    """SNAP unitary diag(exp(i theta_n)); phases beyond len(thetas) are 0."""
    dim = read_int(dim, "dim", 1, high=MAX_DIM)
    thetas = read_numbers(thetas, "thetas", ndim=1)
    if thetas.size > dim:
        raise ValidationError(
            f"phase vector of length {thetas.size} exceeds dim {dim}"
        )
    phases = np.zeros(dim)
    phases[: thetas.size] = thetas
    return np.diag(np.exp(1j * phases))
