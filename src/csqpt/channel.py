"""Quantum channels on the truncated Fock space.

Conventions, used consistently everywhere:

* ``vec`` stacks columns, so ``vec(A rho B) = (B.T kron A) vec(rho)``.
* A Kraus set {K_i} acts as ``rho -> sum_i K_i rho K_i^dag`` and is
  trace preserving iff ``sum_i K_i^dag K_i = I``.
* The superoperator of a Kraus set is ``sum_i conj(K_i) kron K_i``.
* The Choi matrix is ``sum_i vec(K_i) vec(K_i)^dag`` with trace equal to
  the Fock dimension; its partial trace over the output factor is the
  identity for trace-preserving channels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatchError, NotAChannelError, ValidationError,
                     read_int, read_numbers, read_real)

# Frobenius defect below which a Kraus set counts as certified CPTP
CPTP_TOL = 1e-6
# the same defect, ||V^dag V - I|| of the stack V, for an isometry
ISOMETRY_TOL = 1e-8

# Choi eigenvalues below this are dropped when extracting Kraus operators
EIG_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A channel given by its own read-only copy of a finite Kraus stack of
    shape (rank, dim, dim), so ``defect`` and ``certified`` cannot go stale."""

    operators: np.ndarray
    defect: float = field(init=False)  # cptp_defect(operators)
    certified: bool = field(init=False)

    def __post_init__(self):
        ops = np.array(read_numbers(self.operators, "Kraus operators", complex,
                                    shape=(None, None, None)))
        if ops.shape[1] != ops.shape[2]:
            raise ValidationError("operators must have shape (rank, dim, dim)")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "defect", cptp_defect(ops))
        object.__setattr__(self, "certified", self.defect <= CPTP_TOL)

    @property
    def dim(self):
        return self.operators.shape[1]

    @property
    def rank(self):
        return self.operators.shape[0]

    @property
    def matrix(self):
        """The read-only (rank*dim, dim) vertical stack V of the operators."""
        return self.operators.reshape(-1, self.dim)

    def apply(self, x):
        """The Kraus action on one operator or a stack; see ``apply``."""
        return apply(self, x)


def cptp_defect(operators):
    """Frobenius norm of sum_i K_i^dag K_i - I."""
    ops = np.asarray(operators)
    d = ops.shape[-1]
    acc = np.einsum("kab,kac->bc", ops.conj(), ops)
    return float(np.linalg.norm(acc - np.eye(d)))


def require_certified(ks):
    """Return ``ks``; raise NotAChannelError unless it is certified CPTP."""
    if not ks.certified:
        raise NotAChannelError(
            f"Kraus set is not CPTP: ||sum K^dag K - I|| = "
            f"{ks.defect:.2e} > {CPTP_TOL:.0e}"
        )
    return ks


def require_isometry(ks, error=ValidationError):
    """Return ``ks``; raise ``error`` unless its stack V is an isometry,
    ||V^dag V - I|| <= ISOMETRY_TOL (so ``ks`` is certified too)."""
    if not ks.defect <= ISOMETRY_TOL:  # NaN included
        raise error(
            f"Kraus stack is not an isometry: ||V^dag V - I|| = {ks.defect:.2e}")
    return ks


def unitary_channel(u):
    """Wrap a square unitary as a rank-1 channel, else NotAChannelError."""
    return require_isometry(KrausSet([u]), NotAChannelError)


def operand(x, dim):
    """``x`` as a complex operator or stack ending in (dim, dim), else raise."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (dim, dim):
        raise DimensionMismatchError(
            f"operator shape {x.shape} does not end in the channel's ({dim}, {dim})"
        )
    return x


def apply(channel, x):
    """sum_k K_k x K_k^dag on one operator or a stack of them.

    A stack is looped over its leading axes, so no (n, rank, d, d)
    intermediate is built.
    """
    d = channel.dim
    x = operand(x, d)
    # sum_k (K_k x) K_k^dag as one product of d x (rank*d) stacks
    ops, r = channel.operators, channel.rank
    right = ops.transpose(1, 0, 2).reshape(d, r * d).conj().T
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape[:-2]):
        out[idx] = (ops @ x[idx]).transpose(1, 0, 2).reshape(d, r * d) @ right
    return out


def kraus_to_super(channel):
    """Superoperator sum_i conj(K_i) kron K_i acting on column-vec(rho)."""
    ops = channel.operators
    d = channel.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        s += np.kron(k.conj(), k)
    return s


def kraus_to_choi(channel):
    """Choi matrix sum_i vec(K_i) vec(K_i)^dag, trace = dim."""
    ops = channel.operators
    d = channel.dim
    vecs = ops.transpose(0, 2, 1).reshape(channel.rank, d * d)  # column-vec rows
    return np.einsum("ka,kb->ab", vecs, vecs.conj())


def choi_to_kraus(choi):
    """Extract Kraus operators from a Choi matrix by eigendecomposition.

    Eigenvalues at or below EIG_CUTOFF are dropped; the kept operators come
    largest eigenvalue first.  Raises NotAChannelError if the Choi matrix is
    not Hermitian positive semidefinite within tolerance.
    """
    choi = np.asarray(choi, dtype=complex)
    n = choi.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n or choi.shape != (n, n):
        raise ValidationError("Choi matrix must be d^2 x d^2")
    herm_defect = np.linalg.norm(choi - choi.conj().T)
    if not herm_defect <= 1e-8:  # NaN included
        raise NotAChannelError(f"Choi matrix not Hermitian (defect {herm_defect:.2e})")
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    if vals.min() < -1e-6:
        raise NotAChannelError(f"Choi matrix has negative eigenvalue {vals.min():.2e}")
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > EIG_CUTOFF
    # column i of vecs is vec(K_i) / sqrt(val_i), stacked column-major
    scaled = (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, d, d)
    return KrausSet(np.ascontiguousarray(scaled.transpose(0, 2, 1)))


@dataclass(frozen=True)
class DecoherenceParams:
    """Cavity decay times in microseconds.

    ``t1`` is the photon-loss time, ``t2`` the coherence time of the 0-1
    manifold; the pure-dephasing rate follows as 1/T_phi = 1/T2 - 1/(2 T1)
    and must be non-negative (T2 <= 2 T1).
    """

    t1: float
    t2: float

    def __post_init__(self):
        object.__setattr__(self, "t1", read_real(self.t1, "T1", finite=False))
        object.__setattr__(self, "t2", read_real(self.t2, "T2", finite=False))
        if not (self.t1 > 0 and self.t2 > 0):  # NaN included
            raise ValidationError("decay times must be positive")
        if self.dephasing_rate < 0:
            raise ValidationError(
                f"T2={self.t2} exceeds the 2*T1={2 * self.t1} limit"
            )

    @property
    def loss_rate(self):
        return 1.0 / self.t1

    @property
    def dephasing_rate(self):
        rate = 1.0 / self.t2 - 0.5 / self.t1
        # kill the rounding residue when t2 is exactly at the 2*T1 limit
        return 0.0 if abs(rate) < 1e-15 else rate


def decay(params, duration, x):
    """exp(duration * L) applied to the trailing d x d axes of ``x``.

    L is the cavity Lindblad generator with collapse operators sqrt(1/T1) a
    (photon loss) and sqrt(2/T_phi) a^dag a (pure dephasing).  On the
    truncated space both parts are exact and commute, so the map is a
    Gaussian dephasing factor exp(-t (m-n)^2 / T_phi) on |m><n| followed by
    bosonic amplitude damping:
    |m><n| -> sum_l c_l(m) c_l(n) |m-l><n-l|,
    c_l(n)^2 = C(n, l) eta^(n-l) (1-eta)^l, eta = exp(-t/T1).
    """
    duration = read_real(duration, "duration", 0)
    x = np.asarray(x, dtype=complex)
    d = x.shape[-1]
    n = np.arange(d)
    x = x * np.exp(-params.dephasing_rate * duration * (n[:, None] - n) ** 2)
    eta = np.exp(-duration * params.loss_rate)
    lost = -np.expm1(-duration * params.loss_rate)
    out = np.zeros_like(x)
    # without loss (T1 = inf or t = 0) only the l = 0 term is non-zero
    for l in range(d if lost else 1):
        comb = np.array([math.comb(m, l) for m in range(l, d)], dtype=float)
        c = np.sqrt(comb * eta ** (n[: d - l]) * lost**l)
        out[..., : d - l, : d - l] += np.outer(c, c) * x[..., l:, l:]
    return out


def decay_superoperator(params, duration, dim):
    """exp(duration * L) as a d^2 x d^2 matrix acting on column-vec(rho)."""
    units = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)
    images = decay(params, duration, units)
    return images.transpose(3, 2, 1, 0).reshape(dim * dim, dim * dim)


def random_channel(dim, rank, rng):
    """Random CPTP channel from a Haar-ish random stacked isometry."""
    dim = read_int(dim, "dim", 1)
    rank = read_int(rank, "rank", 1, high=dim * dim)
    g = rng.standard_normal((rank * dim, dim)) + 1j * rng.standard_normal(
        (rank * dim, dim)
    )
    q, _ = np.linalg.qr(g)
    return KrausSet(q.reshape(rank, dim, dim))


def kraus_to_json(ks):
    """JSON form {"dim", "rank", "operators"} with row-major [re, im] entries."""
    return {
        "dim": ks.dim,
        "rank": ks.rank,
        "operators": np.stack(
            [ks.operators.real, ks.operators.imag], axis=-1).tolist(),
    }


def kraus_from_json(data):
    """KrausSet from its JSON form, re-certified: NotAChannelError if the
    operators are not CPTP within CPTP_TOL."""
    try:
        dim, rank = (read_int(data[key], f"Kraus {key}", 1) for key in ("dim", "rank"))
        arr = read_numbers(data["operators"], "Kraus operators",
                           shape=(rank, dim, dim, 2))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed Kraus JSON: {exc}") from exc
    # [re, im] pairs viewed as complex, the bits (signed zeros too) kept
    return require_certified(KrausSet(arr.view(complex)[..., 0]))
