"""Displaced-parity Wigner measurements of coherent probes.

The Wigner function convention is W(beta) = (2/pi) Tr[D^dag(beta) rho
D(beta) P], which integrates to Tr[rho] over the beta plane.  Datasets hold
W values on a rectangular beta grid for each coherent probe alpha, stored
row-major with Re(beta) varying fastest.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from ._cache import CACHE_ENTRIES, cached, read_only
from .errors import DataQualityError, ValidationError
from .fock import coherent_state, displacement, displacements, parity

DATASET_SCHEMA = "csqpt-dataset-v1"


@dataclass(frozen=True)
class ProbeGrid:
    alphas: np.ndarray


@dataclass(frozen=True)
class WignerGrid:
    betas: np.ndarray


def _square_grid(n, extent):
    if n < 1 or extent <= 0:
        raise ValidationError("grid needs n >= 1 and a positive extent")
    axis = np.linspace(-extent, extent, n)
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


@dataclass(frozen=True)
class TomographyDataset:
    """Wigner values (n_probes, n_betas) for coherent probes through a channel."""

    probes: np.ndarray
    betas: np.ndarray
    values: np.ndarray
    dim: int
    shots: int
    seed: int

    def __post_init__(self):
        if self.values.shape != (self.probes.size, self.betas.size):
            raise DataQualityError(
                f"values shape {self.values.shape} does not match "
                f"{self.probes.size} probes x {self.betas.size} betas"
            )
        if not np.all(np.isfinite(self.values)):
            raise DataQualityError("dataset contains non-finite values")


_PROBE_KET_CACHE = {}
_PARITY_CACHE = {}


def probe_kets(alphas, dim):
    """Coherent kets |alpha_i> as rows (n_probes, dim), cached and read-only."""
    alphas = np.asarray(alphas, dtype=complex)
    return cached(
        _PROBE_KET_CACHE, (dim, alphas.tobytes()),
        lambda: read_only(np.stack([coherent_state(a, dim) for a in alphas])),
    )


def _images(operators, kets):
    """a[i, k] = K_k |alpha_i>, shape (n_probes, rank, dim), for a Kraus stack
    of shape (rank, dim, dim) or its vertical (rank*dim, dim) form."""
    n, dim = kets.shape
    return (kets @ operators.reshape(-1, dim).T).reshape(n, -1, dim)


class ParityModel:
    """The forward model W_ij = Tr[M_j E(|alpha_i><alpha_i|)] of one grid.

    M_j = (2/pi) D(beta_j) P D^dag(beta_j) is Hermitian, so it has d^2 real
    coordinates: the diagonal, then Re and Im of the strict upper triangle
    (row-major).  ``packed`` (d^2, n_betas) holds them column by column and
    ``ops`` (n_betas, d, d) is the dense stack.  For a Kraus set,
    rho_i = sum_k K_k |alpha_i><alpha_i| K_k^dag is one batched product of
    the probe images K_k |alpha_i>, its coordinates (off-diagonal ones
    doubled) form row i of X, and W = X packed is a single real GEMM.  The
    gradient's N_i = sum_j c_ij M_j is the transposed GEMM, unpacked to
    Hermitian d x d by one gather and applied to the images in one batched
    product.
    """

    def __init__(self, ops):
        self.ops = ops
        dim = ops.shape[-1]
        iu, ju = np.triu_indices(dim, 1)
        upper, lower = 2 * (iu * dim + ju), 2 * (ju * dim + iu)
        diag = 2 * np.arange(dim) * (dim + 1)
        # the coordinates' slots in the real view (.., 2 d^2) of a complex
        # d x d matrix, where Re(z_ab) sits at 2(a d + b) and Im(z_ab) after it
        self._pack = np.concatenate([diag, upper, upper + 1])
        self._scale = np.concatenate([np.ones(dim), np.full(2 * iu.size, 2.0)])
        # the reverse gather: the coordinate each slot reads, and its sign;
        # the lower triangle mirrors the upper with Im negated
        self._src = np.zeros(2 * dim * dim, dtype=np.intp)
        self._sign = np.zeros(2 * dim * dim)
        self._src[self._pack], self._sign[self._pack] = np.arange(dim * dim), 1.0
        self._src[lower], self._sign[lower] = self._src[upper], 1.0
        self._src[lower + 1], self._sign[lower + 1] = self._src[upper + 1], -1.0
        flat = np.ascontiguousarray(ops).reshape(ops.shape[0], -1).view(float)
        self.packed = read_only(np.ascontiguousarray(flat.take(self._pack, axis=1).T))

    @classmethod
    def of(cls, ops):
        """The model of a parity stack: ``ops`` itself if it is a model, the
        cached model whose ``ops`` is that very array, else a new one."""
        if isinstance(ops, cls):
            return ops
        for model in _PARITY_CACHE.values():
            if model.ops is ops:
                return model
        return cls(np.asarray(ops, dtype=complex))

    def wigner(self, operators, kets):
        """W (n_probes, n_betas) of the Kraus stack ``operators``, of shape
        (rank, dim, dim) or (rank*dim, dim), on the probe kets (rows)."""
        a = _images(operators, kets)
        rho = a.swapaxes(1, 2) @ a.conj()
        x = rho.reshape(rho.shape[0], -1).view(float).take(self._pack, axis=1)
        x *= self._scale
        return x @ self.packed

    def gradient(self, operators, kets, coeffs):
        """d/d(conj K) of sum_ij coeffs_ij W_ij, shaped like ``operators``.

        Operator k of it is sum_i N_i K_k |alpha_i><alpha_i| with the
        Hermitian N_i = sum_j coeffs_ij M_j.
        """
        dim = kets.shape[1]
        slots = (coeffs @ self.packed.T).take(self._src, axis=1) * self._sign
        n = slots.view(complex).reshape(-1, dim, dim)
        # row k of nk[i] is (N_i K_k |alpha_i>)^T
        nk = _images(operators, kets) @ n.swapaxes(1, 2)
        g = nk.reshape(kets.shape[0], -1).T @ kets.conj()
        return g.reshape(operators.shape)


def parity_model(betas, dim):
    """ParityModel of (2/pi) D(beta) P D^dag(beta), cached per (betas, dim).

    Its arrays are read-only; the cache keeps CACHE_ENTRIES grids.
    """
    betas = np.asarray(betas, dtype=complex)

    def build():
        d = displacements(betas, dim)
        ops = (2 / np.pi) * (d * (-1.0) ** np.arange(dim)) @ d.conj().swapaxes(1, 2)
        return ParityModel(read_only(ops))

    return cached(_PARITY_CACHE, (dim, betas.tobytes()), build)


def displaced_parity_ops(betas, dim):
    """(2/pi) D(beta) P D^dag(beta) for each beta: the read-only stack of
    the cached ``parity_model``."""
    return parity_model(betas, dim).ops


def wigner_value(rho, beta):
    """W(beta) = (2/pi) Tr[D^dag(beta) rho D(beta) P]."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    d = displacement(beta, dim)
    val = (2 / np.pi) * np.trace(d.conj().T @ rho @ d @ parity(dim))
    return float(val.real)


def simulate_dataset(channel_ks, probes, grid, shots=0, seed=0):
    """Wigner dataset of the channel on the probe/measurement grids.

    Exact values come from ``ParityModel.wigner`` on the channel's Kraus
    stack, the forward model ``reconstruct`` fits with; any rank works.
    With ``shots`` > 0 each (probe, beta) value is replaced by the estimate
    from a binomial parity-bit sample of that size.  All counts come from
    one ``np.random.default_rng(seed)`` stream in one draw, in row-major
    (probe, beta) order, so a seed fixes the dataset byte for byte.
    """
    alphas = np.asarray(probes.alphas, dtype=complex)
    betas = np.asarray(grid.betas, dtype=complex)
    dim = channel_ks.dim
    if shots < 0:
        raise ValidationError("shots must be non-negative")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    # Kraus operators first: a SequenceChannel builds them on demand, and its
    # d^2 scratch is freed before the parity operators are allocated
    ops = channel_ks.operators
    values = parity_model(betas, dim).wigner(ops, probe_kets(alphas, dim))
    if shots > 0:
        # parity bit is +1 with probability (1 + pi W / 2) / 2
        prob = np.clip((1 + values * np.pi / 2) / 2, 0.0, 1.0)
        k = np.random.default_rng(seed).binomial(shots, prob)
        values = (2 / np.pi) * (2 * k / shots - 1)
    return TomographyDataset(
        probes=alphas, betas=betas, values=values, dim=dim,
        shots=int(shots), seed=int(seed),
    )


def subsample_grid(ds, stride=2):
    """Keep every stride-th beta along each grid axis (anchored at index 0)."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")
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
    return [[float(z.real), float(z.imag)] for z in arr]


def dataset_to_json(ds):
    return {
        "schema": DATASET_SCHEMA,
        "dim": ds.dim,
        "shots": ds.shots,
        "seed": ds.seed,
        "normalized": False,  # read by older csqpt releases
        "probes": _pairs(ds.probes),
        "betas": _pairs(ds.betas),
        "values": [[float(v) for v in row] for row in ds.values],
    }


def dataset_from_json(data):
    try:
        if data["schema"] != DATASET_SCHEMA:
            raise DataQualityError(f"unknown dataset schema {data['schema']!r}")
        probes = np.array([complex(re, im) for re, im in data["probes"]])
        betas = np.array([complex(re, im) for re, im in data["betas"]])
        values = np.asarray(data["values"], dtype=float)
        if data["normalized"]:
            # only normalize_dataset of older csqpt releases wrote true
            raise DataQualityError(
                "dataset holds rescaled (normalized) values, not raw Wigner data"
            )
        return TomographyDataset(
            probes=probes, betas=betas, values=values,
            dim=int(data["dim"]), shots=int(data["shots"]),
            seed=int(data["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataQualityError(f"malformed dataset JSON: {exc}") from exc


def save_dataset(ds, path):
    with open(path, "w") as fh:
        json.dump(dataset_to_json(ds), fh, indent=2)
        fh.write("\n")


def load_dataset(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataQualityError(f"cannot read dataset {path}: {exc}") from exc
    return dataset_from_json(data)

