"""Displaced-parity Wigner measurements of coherent probes.

The Wigner function convention is W(beta) = (2/pi) Tr[D^dag(beta) rho
D(beta) P], which integrates to Tr[rho] over the beta plane.  Datasets hold
W values on a rectangular beta grid for each coherent probe alpha, stored
row-major with Re(beta) varying fastest.
"""

import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DataQualityError, ValidationError, read_instance,
                     read_int, read_json, read_numbers, read_real)
from .fock import CACHE_ENTRIES, MAX_DIM, coherent_state, displacement, read_only

DATASET_SCHEMA = "csqpt-dataset-v1"
MAX_SHOTS = 2**63 - 1  # the int64 that numpy's binomial draw takes
# the most points per grid axis: with fock.MAX_DIM and reconstruct.MAX_RANK
# the largest array, the (n^2 probes, rank, dim) images, takes 2^62 bytes
MAX_GRID = 2**10


@dataclass(frozen=True, eq=False)
class ProbeGrid:
    alphas: np.ndarray


@dataclass(frozen=True, eq=False)
class WignerGrid:
    betas: np.ndarray


def _square_grid(n, extent):
    n = read_int(n, "grid n", 1, high=MAX_GRID)
    if not read_real(extent, "grid extent") > 0:
        raise ValidationError(f"grid extent must be > 0, got {extent!r}")
    axis = np.linspace(-extent, extent, n)
    axis = (axis - axis[::-1]) / 2  # -axis is axis[::-1] exactly
    re, im = np.meshgrid(axis, axis, indexing="xy")  # Re varies fastest
    return (re + 1j * im).reshape(-1)


def probe_grid(n=5, alpha_max=1.5):
    """n x n coherent probe amplitudes with corners at +-alpha_max(1+i)."""
    return ProbeGrid(_square_grid(n, alpha_max))


def wigner_grid(n=21, beta_max=2.62):
    """n x n measurement displacements with extent beta_max per axis."""
    return WignerGrid(_square_grid(n, beta_max))


def grid_axes(values):
    """Recover (re_axis, im_axis) from a row-major square-grid complex list.

    Raises DataQualityError when the points do not form a complete
    rectangular grid with Re varying fastest.
    """
    values = np.asarray(values)
    re_axis = np.unique(values.real)
    im_axis = np.unique(values.imag)
    expect = (re_axis[None, :] + 1j * im_axis[:, None]).reshape(-1)
    if expect.size != values.size or np.abs(expect - values).max() > 1e-12:
        raise DataQualityError("points do not form a row-major rectangular grid")
    return re_axis, im_axis


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Wigner values (n_probes, n_betas) for coherent probes through a channel."""

    probes: np.ndarray
    betas: np.ndarray
    values: np.ndarray
    dim: int
    shots: int
    seed: int

    def __post_init__(self):
        for name, dtype, shape in (("probes", complex, (None,)),
                                   ("betas", complex, (None,)),
                                   ("values", float, (None, None))):
            object.__setattr__(self, name, read_numbers(
                getattr(self, name), f"dataset {name}", dtype, DataQualityError,
                shape=shape))
        if self.values.shape != (self.probes.size, self.betas.size):
            raise DataQualityError(
                f"values shape {self.values.shape} does not match "
                f"{self.probes.size} probes x {self.betas.size} betas"
            )
        if not self.values.size:  # its file could not say that [] is (0, 2)
            raise DataQualityError("dataset holds no probe or no Wigner point")
        for name, low, high in (("dim", 1, None), ("shots", 0, MAX_SHOTS),
                                ("seed", 0, None)):
            object.__setattr__(self, name, read_int(
                getattr(self, name), f"dataset {name}", low, DataQualityError, high))


def _amplitudes(values, what):
    """A non-empty flat list of amplitudes as a complex array."""
    values = read_numbers(values, what, complex, shape=(None,))
    if not values.size:
        raise ValidationError(f"{what} must hold at least one amplitude")
    return values


def probe_kets(alphas, dim):
    """Coherent kets |alpha_i> as rows (n_probes, dim), cached and read-only."""
    return _cached_kets(_amplitudes(alphas, "alphas").tobytes(), dim)


@functools.lru_cache(CACHE_ENTRIES)
def _cached_kets(alphas, dim):
    alphas = np.frombuffer(alphas, dtype=complex)
    return read_only(np.stack([coherent_state(a, dim) for a in alphas]))


def _images(operators, kets):
    """a[i, k] = K_k |alpha_i>, shape (n_probes, rank, dim), for a Kraus stack
    of shape (rank, dim, dim) or its vertical (rank*dim, dim) form."""
    n, dim = kets.shape
    return (kets @ operators.reshape(-1, dim).T).reshape(n, -1, dim)


# _SIGNS[b, q] is the sign coordinate block b takes at orbit member q.
# Block b has bit 0 set for k = n - m odd and bit 1 for the Im parts; member
# q has bit 0 set for -beta and bit 1 for a conjugation.  As M(-beta)_mn =
# (-1)^k M(beta)_mn and M(conj beta) = conj M(beta), it is the 4 x 4
# Sylvester-Hadamard matrix (-1)^popcount(b & q).
_SIGNS = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def _layout(dim):
    """(pack, src, sign, bounds) of the d^2 real coordinates of a Hermitian
    d x d matrix: the diagonal, then Re and Im of the strict upper triangle
    (row-major), sorted stably into the four blocks of ``_SIGNS`` (Re for
    even k, the diagonal first; Re for odd k; Im for even k; Im for odd k),
    block b being coordinates bounds[b]:bounds[b + 1].  ``pack`` lists each
    coordinate's slot in the real view (.., 2 d^2) of the matrix, Re(z_ab)
    at 2(a d + b) and Im(z_ab) after it; ``src`` and ``sign`` give each
    slot's coordinate and sign, the lower triangle mirroring the upper with
    Im negated and the diagonal's Im slots reading zero."""
    iu, ju = np.triu_indices(dim, 1)
    odd = (ju - iu) % 2
    block = np.concatenate([np.zeros(dim, dtype=np.intp), odd, 2 + odd])
    order = np.argsort(block, kind="stable")
    upper, lower = 2 * (iu * dim + ju), 2 * (ju * dim + iu)
    diag = 2 * np.arange(dim) * (dim + 1)
    pack = np.concatenate([diag, upper, upper + 1])[order]
    src = np.zeros(2 * dim * dim, dtype=np.intp)
    sign = np.zeros(2 * dim * dim)
    src[pack], sign[pack] = np.arange(dim * dim), 1.0
    src[lower], sign[lower] = src[upper], 1.0
    src[lower + 1], sign[lower + 1] = src[upper + 1], -1.0
    return pack, src, sign, np.searchsorted(block[order], np.arange(5))


class ParityModel:
    """The forward model W_ij = Tr[M_j E(|alpha_i><alpha_i|)] of one grid:
    the linear map ``expect`` from states to W and its transpose ``adjoint``.

    ``ParityModel(betas, dim)`` reads ``betas`` as a flat, finite,
    non-empty list of amplitudes (``np.unique`` would fold every NaN into
    one orbit) and ``dim`` as an integer in [1, ``MAX_DIM``].
    M_j = (2/pi) D(beta_j) P D^dag(beta_j) is Hermitian, so it has d^2
    real coordinates, grouped into the four blocks of ``_layout``.
    M(-beta) and M(conj beta) differ from M(beta) only by the block signs
    ``_SIGNS``, so the model holds one column per orbit {beta, -beta,
    conj beta, -conj beta} of the grid: ``packed`` (d^2, orbit count) at the
    representatives |Re beta| + i |Im beta|, beta_j being member
    (bit 0 for -beta, bit 1 for a conjugation, as in ``_SIGNS``) of its
    orbit.  A grid without that symmetry just has one orbit per beta.
    The columns are built one at a time, so no dense stack is ever held.
    P anticommutes with the generator beta a^dag - conj(beta) a, truncated
    or not, so P D^dag(beta) = D(beta) P and (2/pi) D(beta) P D^dag(beta)
    = (2/pi) D(2 beta) P (Royer, Phys. Rev. A 15, 449 (1977)): each
    representative's column is ``fock.displacement`` at 2 beta with
    column n signed (2/pi)(-1)^n, packed by ``_layout``.

    ``expect`` packs states rho_i into the rows of X (off-diagonal
    coordinates doubled) and runs one real GEMM per block against the
    orbit columns; the four products combine by the 4 x 4 ``_SIGNS`` into
    every member's values, and one column gather picks each beta's.
    ``image_wigner`` forms rho_i = sum_k K_k |alpha_i><alpha_i| K_k^dag of
    a Kraus set in one batched product of the probe images K_k |alpha_i>.
    ``adjoint`` forms N_i = sum_j c_ij M_j: c folded per orbit with the same
    signs (repeated betas add up), four GEMMs into the coordinate blocks,
    unpacked to Hermitian d x d by one gather.
    """

    def __init__(self, betas, dim):
        betas = _amplitudes(betas, "betas")
        self.dim = dim = read_int(dim, "dim", 1, high=MAX_DIM)
        reps, orbit = np.unique(np.abs(betas.real) + 1j * np.abs(betas.imag),
                                return_inverse=True)
        neg = betas.real < 0
        member = neg + 2 * (neg != (betas.imag < 0))
        self._pack, self._src, self._sign, bounds = map(read_only, _layout(dim))
        sign = (2 / np.pi) * (-1.0) ** np.arange(dim)
        packed = np.empty((dim * dim, reps.size))
        for j, rep in enumerate(reps):
            column = (displacement(2 * rep, dim) * sign).view(float)
            packed[:, j] = column.take(self._pack)
        self.packed = read_only(packed)
        # Tr[M rho] counts each coordinate once per slot that reads it
        self._scale = read_only(np.bincount(self._src, self._sign != 0, dim * dim))
        self._rows = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        # beta_j's column among the member-major 4 x (orbit count) columns
        self._gather = read_only(member * reps.size + orbit)

    def workspace(self, rows):
        """Buffers for ``rows`` states or N_i and their coordinates, and the
        flat (member, orbit) slot of each of rows x n_betas coefficients,
        which ``image_wigner`` and ``adjoint`` build if given none (``expect``
        only the coordinates).  ``adjoint`` returns the first buffer itself,
        which the next ``image_wigner`` or ``adjoint`` given them
        overwrites; no other result shares their memory."""
        d = self.dim
        fold = np.add.outer(np.arange(rows) * (4 * self.packed.shape[1]), self._gather)
        return (np.empty((rows, d, d), dtype=complex), np.empty((rows, d * d)),
                fold.ravel())

    def image_wigner(self, images, work=None):
        """W (n_probes, n_betas) of the output states sum_k a_ik a_ik^dag of
        the probe images a = ``_images(operators, kets)``."""
        work = self.workspace(len(images)) if work is None else work
        rho = np.matmul(images.swapaxes(1, 2), images.conj(), out=work[0])
        return self.expect(rho, work)

    def expect(self, rho, work=None):
        """W (n, n_betas), W_ij = Tr[M_j rho_i], of a Hermitian stack
        (n, dim, dim); only its diagonal and upper triangle are read."""
        rho = np.ascontiguousarray(rho, dtype=complex)
        n = rho.shape[0]
        x = np.empty((n, self.dim * self.dim)) if work is None else work[1]
        rho.reshape(n, -1).view(float).take(self._pack, axis=1, out=x, mode="clip")
        x *= self._scale
        y = np.empty((n, 4, self.packed.shape[1]))
        for b, s in enumerate(self._rows):
            np.matmul(x[:, s], self.packed[s], out=y[:, b])
        # member q of orbit o is sum_b _SIGNS[b, q] y[i, b, o]; _SIGNS is
        # symmetric
        return (_SIGNS @ y).reshape(n, -1).take(self._gather, axis=1)

    def adjoint(self, coeffs, work=None):
        """The Hermitian N_i = sum_j coeffs_ij M_j (n, dim, dim) of real
        coefficients (n, n_betas), written into ``work[0]``."""
        rows = coeffs.shape[0]
        n, x, fold = self.workspace(rows) if work is None else work
        # c[i, q, o] sums coeffs_ij over the betas j that are member q of
        # orbit o, so a repeated beta counts each time
        c = np.bincount(fold, coeffs.ravel(), rows * 4 * self.packed.shape[1])
        f = _SIGNS @ c.reshape(rows, 4, -1)
        for b, s in enumerate(self._rows):
            np.matmul(f[:, b], self.packed[s].T, out=x[:, s])
        slots = n.reshape(rows, -1).view(float)
        # mode "raise" would copy through a temporary; every index is in range
        x.take(self._src, axis=1, out=slots, mode="clip")
        slots *= self._sign
        return n


def parity_model(betas, dim):
    """The ParityModel of a beta grid, read-only and cached per (betas, dim)."""
    return _cached_model(_amplitudes(betas, "betas").tobytes(),
                         read_int(dim, "dim", 1, high=MAX_DIM))


@functools.lru_cache(CACHE_ENTRIES)
def _cached_model(betas, dim):
    return ParityModel(np.frombuffer(betas, dtype=complex), dim)


def displaced_parity_ops(betas, dim):
    """(2/pi) D(beta) P D^dag(beta) = (2/pi) D(2 beta) P for each beta: the
    dense read-only (n_betas, dim, dim) stack, the ``adjoint`` of the
    identity under the cached ``parity_model``, formed on each call and not
    kept, so a cached model never grows."""
    model = parity_model(betas, dim)
    return read_only(model.adjoint(np.eye(model._gather.size)))


def wigner_value(rho, beta):
    """W(beta) = (2/pi) Tr[D^dag(beta) rho D(beta) P], the real part for a
    non-Hermitian ``rho``.  The one-point model is built uncached, so a
    one-off beta never evicts a fit's grid from the parity cache."""
    rho = read_numbers(rho, "rho", complex, shape=(None, None))
    if rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho must be square, got shape {rho.shape}")
    model = ParityModel(read_numbers(beta, "beta", complex, shape=())[None], len(rho))
    return float(model.expect((rho + rho.conj().T)[None] / 2)[0, 0])


def simulate_dataset(channel, probes, grid, shots=0, seed=0):
    """Wigner dataset of the channel on the probe/measurement grids.

    ``channel`` is anything with ``dim`` and ``apply``.  Exact values are
    ``ParityModel.expect`` of the output states E(|alpha_i><alpha_i|), the
    forward model ``reconstruct`` fits with.  With ``shots`` > 0 each
    (probe, beta) value is replaced by the estimate from a binomial
    parity-bit sample of that size.  All counts come from one
    ``np.random.default_rng(seed)`` stream in one draw, in row-major
    (probe, beta) order, so a seed fixes the dataset byte for byte.
    ``shots`` and ``seed`` must be integers >= 0 (``read_int``), ``shots``
    at most ``MAX_SHOTS``.
    """
    shots, seed = read_int(shots, "shots", 0, high=MAX_SHOTS), read_int(seed, "seed", 0)
    probes = read_instance(probes, ProbeGrid, "probes")
    grid = read_instance(grid, WignerGrid, "grid")
    dim = channel.dim
    kets = probe_kets(probes.alphas, dim)
    rho = channel.apply(kets[:, :, None] * kets[:, None, :].conj())
    values = parity_model(grid.betas, dim).expect(rho)
    if shots > 0:
        # parity bit is +1 with probability (1 + pi W / 2) / 2
        prob = np.clip((1 + values * np.pi / 2) / 2, 0.0, 1.0)
        k = np.random.default_rng(seed).binomial(shots, prob)
        values = (2 / np.pi) * (2 * k / shots - 1)
    return TomographyDataset(
        probes=probes.alphas, betas=grid.betas, values=values, dim=dim,
        shots=shots, seed=seed,
    )


def subsample_grid(ds, stride=2):
    """Keep every stride-th beta along each grid axis (anchored at index 0)."""
    stride = read_int(stride, "stride", 1)
    re_axis, im_axis = grid_axes(ds.betas)  # row-major, Re fastest
    shape = (im_axis.size, re_axis.size)
    betas = ds.betas.reshape(shape)[::stride, ::stride]
    n_im, n_re = betas.shape
    if n_re < 3 or n_im < 3:
        raise ValidationError(
            f"subsampled grid would be {n_re}x{n_im}; need at least 3x3"
        )
    values = ds.values.reshape(-1, *shape)[:, ::stride, ::stride]
    return replace(
        ds, betas=betas.reshape(-1), values=values.reshape(ds.probes.size, -1)
    )


def _pairs(arr):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def dataset_to_json(ds):
    read_instance(ds, TomographyDataset, "ds")
    return {
        "schema": DATASET_SCHEMA,
        "dim": ds.dim,
        "shots": ds.shots,
        "seed": ds.seed,
        "normalized": False,  # read by older csqpt releases
        "probes": _pairs(ds.probes),
        "betas": _pairs(ds.betas),
        "values": ds.values.tolist(),
    }


def dataset_from_json(data):
    try:
        if data["schema"] != DATASET_SCHEMA:
            raise DataQualityError(f"unknown dataset schema {data['schema']!r}")
        if read_instance(data["normalized"], bool, "dataset normalized",
                         DataQualityError):
            # only normalize_dataset of older csqpt releases wrote true
            raise DataQualityError(
                "dataset holds rescaled (normalized) values, not raw Wigner data"
            )
        # [re, im] rows viewed as complex, the bits kept as complex(re, im)
        probes, betas = (
            read_numbers(data[key], f"dataset {key}", float, DataQualityError,
                         shape=(None, 2)).view(complex)[:, 0]
            for key in ("probes", "betas"))
        return TomographyDataset(
            probes=probes, betas=betas, values=data["values"], dim=data["dim"],
            shots=data["shots"], seed=data["seed"],
        )
    except (KeyError, TypeError) as exc:
        raise DataQualityError(f"malformed dataset JSON: {exc}") from exc


def save_dataset(ds, path):
    text = json.dumps(dataset_to_json(ds)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_dataset(path):
    return dataset_from_json(read_json(path, "dataset", DataQualityError))
