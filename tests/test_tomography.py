import json

import numpy as np
import pytest
from scipy.linalg import expm

from csqpt import channel, fock, gates, tomography
from csqpt.errors import DataQualityError, ValidationError

np_rng = np.random.default_rng(5511)


def identity_channel(dim):
    return channel.unitary_channel(np.eye(dim, dtype=complex))


def test_grids():
    pg = tomography.probe_grid()
    assert pg.alphas.size == 25
    assert pg.alphas[0] == -1.5 - 1.5j and pg.alphas[-1] == 1.5 + 1.5j
    # Re varies fastest
    assert pg.alphas[1] == -0.75 - 1.5j
    wg = tomography.wigner_grid()
    assert wg.betas.size == 441
    assert wg.betas[0] == -2.62 - 2.62j and wg.betas[-1] == 2.62 + 2.62j


def test_wigner_point_values():
    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1
    assert abs(tomography.wigner_value(vac, 0.0) - 2 / np.pi) < 1e-12
    one = np.outer(fock.fock_state(1, 16), fock.fock_state(1, 16).conj())
    assert abs(tomography.wigner_value(one, 0.0) + 2 / np.pi) < 1e-12
    for n in range(5):
        rho = np.outer(fock.fock_state(n, 24), fock.fock_state(n, 24).conj())
        assert abs(tomography.wigner_value(rho, 0.0) - (-1) ** n * 2 / np.pi) < 1e-12


def test_parity_stack_matches_expm_build():
    # fast path vs slow oracle: the batched quadrature stack against one
    # scipy expm per beta, (2/pi) D P D^dag, on the contract grid, <= 1e-13
    dim = 32
    betas = tomography.wigner_grid().betas
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    p = np.diag((-1.0) ** np.arange(dim))
    ref = np.empty((betas.size, dim, dim), dtype=complex)
    for j, beta in enumerate(betas):
        d = expm(beta * a.conj().T - np.conj(beta) * a)
        ref[j] = (2 / np.pi) * (d @ p @ d.conj().T)
    ops = tomography.parity_model(betas, dim).ops
    assert np.abs(ops - ref).max() <= 1e-13
    # beta = 0 and dim 1 give the bare parity (2/pi) diag((-1)^n)
    zero = tomography.parity_model(np.zeros(1), dim).ops[0]
    assert np.abs(zero - (2 / np.pi) * p).max() <= 1e-13
    one = tomography.parity_model(betas[:3], 1).ops
    assert np.abs(one - 2 / np.pi).max() <= 1e-15


def test_wigner_coherent_gaussian():
    # W_|a>(b) = (2/pi) exp(-2|b - a|^2)
    dim = 32
    for _ in range(10):
        alpha = np_rng.uniform(0, 1.5) * np.exp(2j * np.pi * np_rng.uniform())
        beta = np_rng.uniform(0, 1.5) * np.exp(2j * np.pi * np_rng.uniform())
        ket = fock.coherent_state(alpha, dim)
        w = tomography.wigner_value(np.outer(ket, ket.conj()), beta)
        assert abs(w - (2 / np.pi) * np.exp(-2 * abs(beta - alpha) ** 2)) < 1e-6


def test_exact_dataset_matches_gaussian():
    ds = tomography.simulate_dataset(
        identity_channel(32), tomography.probe_grid(), tomography.wigner_grid()
    )
    expected = (2 / np.pi) * np.exp(
        -2 * np.abs(ds.betas[None, :] - ds.probes[:, None]) ** 2
    )
    # the analytic Gaussian holds where the displaced states fit in dim 32;
    # far corners of the default grids intentionally probe truncation
    mask = (np.abs(ds.probes)[:, None] <= 1.5 + 1e-9) & (
        np.abs(ds.betas)[None, :] <= 1.5 + 1e-9
    )
    assert np.abs(ds.values - expected)[mask].max() < 1e-6
    assert ds.shots == 0


def test_shot_noise_reproducible_and_quantized():
    ch = identity_channel(16)
    pg, wg = tomography.probe_grid(3, 1.0), tomography.wigner_grid(5, 2.0)
    a = tomography.simulate_dataset(ch, pg, wg, shots=200, seed=11)
    b = tomography.simulate_dataset(ch, pg, wg, shots=200, seed=11)
    c = tomography.simulate_dataset(ch, pg, wg, shots=200, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # estimates live on the (2/pi)(2k/N - 1) lattice
    k = (a.values * np.pi / 2 + 1) * 200 / 2
    assert np.abs(k - np.round(k)).max() < 1e-9


def test_shot_noise_consistent_with_truth():
    ch = identity_channel(16)
    pg, wg = tomography.probe_grid(3, 1.0), tomography.wigner_grid(5, 2.0)
    exact = tomography.simulate_dataset(ch, pg, wg)
    noisy = tomography.simulate_dataset(ch, pg, wg, shots=200000, seed=3)
    # binomial std of W at 2e5 shots is below (2/pi)/sqrt(2e5) ~ 1.5e-3
    assert np.abs(noisy.values - exact.values).max() < 6 * (2 / np.pi) / np.sqrt(2e5)


@pytest.mark.filterwarnings("ignore::csqpt.errors.TruncationWarning")
def test_shot_noise_distribution():
    # standardised residuals z of 11,025 binomial estimates: mean 0, variance
    # 1 and no correlation between beta neighbours, each bound about five
    # standard errors; a probability table read in the wrong order or one
    # draw reused across points breaks at least one of them
    shots = 100
    ch = channel.unitary_channel(gates.compose_unitary(gates.x_gate_sequence(), 12))
    pg, wg = tomography.probe_grid(5, 1.0), tomography.wigner_grid(21, 2.0)
    exact = tomography.simulate_dataset(ch, pg, wg).values
    noisy = tomography.simulate_dataset(ch, pg, wg, shots=shots, seed=1).values
    p = np.clip((1 + exact * np.pi / 2) / 2, 0.0, 1.0)
    keep = p * (1 - p) > 0.01
    sigma = (2 / np.pi) * np.sqrt(4 * np.where(keep, p * (1 - p), 1.0) / shots)
    z = (noisy - exact) / sigma
    assert keep.sum() > 10000
    assert abs(z[keep].mean()) < 0.05
    assert abs(z[keep].var() - 1) < 0.07
    both = keep[:, :-1] & keep[:, 1:]
    assert abs(np.corrcoef(z[:, :-1][both], z[:, 1:][both])[0, 1]) < 0.05


def test_raw_probe_slices_integrate_to_one():
    # W integrates to Tr[rho] = 1; small probes keep each Gaussian well
    # inside the beta grid, so the raw Riemann sum of each slice is ~1
    ds = tomography.simulate_dataset(
        identity_channel(32), tomography.probe_grid(5, 0.5), tomography.wigner_grid()
    )
    area = (2 * 2.62 / 20) ** 2
    raw_tau = ds.values.sum(axis=1) * area
    assert np.abs(raw_tau - 1).max() < 0.01


def test_subsample_grid():
    ds = tomography.simulate_dataset(
        identity_channel(16), tomography.probe_grid(3, 1.0), tomography.wigner_grid()
    )
    sub = tomography.subsample_grid(ds, 2)
    assert sub.betas.size == 121
    re_axis, im_axis = tomography.grid_axes(sub.betas)
    assert re_axis.size == 11 and im_axis.size == 11
    assert abs(re_axis[0] + 2.62) < 1e-12 and abs(re_axis[-1] - 2.62) < 1e-12
    # values are an exact subset
    keep = np.isin(ds.betas, sub.betas)
    assert np.array_equal(ds.values[:, keep], sub.values)


def test_subsample_floor():
    ds = tomography.simulate_dataset(
        identity_channel(8), tomography.probe_grid(2, 0.5), tomography.wigner_grid(5, 1.0)
    )
    # stride 2 on a 5-line axis keeps 3 lines, right at the floor
    sub = tomography.subsample_grid(ds, 2)
    assert sub.betas.size == 9
    # stride 3 would keep only 2 lines per axis
    with pytest.raises(ValidationError):
        tomography.subsample_grid(ds, 3)


def test_grid_axes_rejects_non_grid():
    with pytest.raises(DataQualityError):
        tomography.grid_axes(np.array([0 + 0j, 1 + 0j, 0 + 1j]))


def test_dataset_json_roundtrip(tmp_path):
    ds = tomography.simulate_dataset(
        identity_channel(16), tomography.probe_grid(3, 1.0),
        tomography.wigner_grid(5, 2.0), shots=500, seed=42,
    )
    path = tmp_path / "ds.json"
    tomography.save_dataset(ds, path)
    back = tomography.load_dataset(path)
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.probes, ds.probes)
    assert np.array_equal(back.betas, ds.betas)
    assert (back.dim, back.shots, back.seed) == (16, 500, 42)
    # serialization is deterministic
    a = json.dumps(tomography.dataset_to_json(ds))
    b = json.dumps(tomography.dataset_to_json(back))
    assert a == b


def test_dataset_json_rejects_malformed():
    with pytest.raises(DataQualityError):
        tomography.dataset_from_json({"schema": "nope"})
    with pytest.raises(DataQualityError):
        tomography.dataset_from_json({"schema": tomography.DATASET_SCHEMA})
    good = tomography.dataset_to_json(
        tomography.simulate_dataset(
            identity_channel(8), tomography.probe_grid(2, 0.5),
            tomography.wigner_grid(3, 1.0),
        )
    )
    bad = dict(good, values=[[float("nan")] * 9] * 4)
    with pytest.raises(DataQualityError):
        tomography.dataset_from_json(bad)


def test_shape_validation():
    with pytest.raises(DataQualityError):
        tomography.TomographyDataset(
            probes=np.array([0j]), betas=np.array([0j, 1j]),
            values=np.zeros((2, 2)), dim=4, shots=0, seed=0,
        )


def test_simulate_with_gate_channel():
    # the X gate moves vacuum-probe weight toward the displaced code words,
    # so the Wigner slice differs sharply from the input Gaussian
    seq = gates.x_gate_sequence()
    ch = channel.unitary_channel(gates.compose_unitary(seq, 32))
    pg = tomography.probe_grid(3, 1.0)
    wg = tomography.wigner_grid(9, 2.0)
    ds = tomography.simulate_dataset(ch, pg, wg)
    ident = tomography.simulate_dataset(identity_channel(32), pg, wg)
    assert np.abs(ds.values - ident.values).max() > 0.1
    assert np.abs(ds.values).max() <= 2 / np.pi + 1e-9
