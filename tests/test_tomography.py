import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from csqpt import basis, channel, fock, gates, reconstruct, tomography
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
    ops = tomography.displaced_parity_ops(betas, dim)
    assert np.abs(ops - ref).max() <= 1e-13
    # beta = 0 and dim 1 give the bare parity (2/pi) diag((-1)^n)
    zero = tomography.displaced_parity_ops(np.zeros(1), dim)[0]
    assert np.abs(zero - (2 / np.pi) * p).max() <= 1e-13
    one = tomography.displaced_parity_ops(betas[:3], 1)
    assert np.abs(one - 2 / np.pi).max() <= 1e-15


def dense_parity(betas, dim):
    """(2/pi) D(beta) P D^dag(beta) per beta, one scipy expm each."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    p = np.diag((-1.0) ** np.arange(dim))
    ref = np.empty((len(betas), dim, dim), dtype=complex)
    for j, beta in enumerate(betas):
        d = expm(beta * a.conj().T - np.conj(beta) * a)
        ref[j] = (2 / np.pi) * (d @ p @ d.conj().T)
    return ref


_linspace_axis = np.linspace(-2.62, 2.62, 21)


@pytest.mark.parametrize("betas, n_orbits", [
    ([0j], 1),  # the origin, an orbit of one
    ([0.7, -0.7, 0.5j, -0.5j, -1.1], 3),  # axis points, orbits of two
    ([0.3 + 0.4j, -0.3 + 0.4j, 0.3 - 0.4j, -0.3 - 0.4j], 1),  # generic, of four
    (0.9 * np.random.default_rng(41).standard_normal((6, 2)) @ [1, 1j], 6),
    ((_linspace_axis[None, :] + 1j * _linspace_axis[:, None]).reshape(-1), 169),
    ([0.3 + 0.4j, 0.3 + 0.4j, -0.3 + 0.4j, 0.1, 0.3 + 0.4j], 2),  # repeated
], ids=["origin", "axes", "generic", "asymmetric", "linspace", "repeated"])
@pytest.mark.filterwarnings("ignore::csqpt.errors.TruncationWarning")
def test_orbit_model_matches_dense_oracle(betas, n_orbits):
    # expect, adjoint and displaced_parity_ops of the orbit model against
    # the dense expm stack, <= 1e-12; a repeated beta's coefficients add up
    # in the adjoint.
    # Dims 1 and 2 leave coordinate blocks empty: zero-width block GEMMs
    betas = np.asarray(betas, dtype=complex)
    for dim in (7, 1, 2):
        rank = min(2, dim * dim)
        model = tomography.parity_model(betas, dim)
        assert model.packed.shape == (dim * dim, n_orbits)
        ref = dense_parity(betas, dim)
        assert np.abs(tomography.displaced_parity_ops(betas, dim) - ref).max() <= 1e-12

        rng = np.random.default_rng(betas.size)
        kraus = channel.random_channel(dim, rank, rng).operators
        kets = tomography.probe_kets([0.3 - 0.2j, -0.5j, 0.6], dim)
        images = np.einsum("kab,ib->ika", kraus, kets)  # K_k |alpha_i>
        rho = np.einsum("ika,ikb->iab", images, images.conj())
        w_ref = np.einsum("jab,iba->ij", ref, rho).real
        assert np.abs(model.expect(rho) - w_ref).max() <= 1e-12
        w = model.image_wigner(tomography._images(kraus, kets))
        assert np.abs(w - w_ref).max() <= 1e-12

        coeffs = rng.standard_normal((kets.shape[0], betas.size))
        n = np.einsum("ij,jab->iab", coeffs, ref)  # N_i = sum_j c_ij M_j
        assert np.abs(model.adjoint(coeffs) - n).max() <= 1e-12


def test_square_grids_mirror_exactly():
    # -axis equals axis[::-1] exactly, so every point's mirror images
    # are grid points and the contract grid folds into 11 x 11 orbits
    for n in range(1, 42):
        for extent in (1e-3, 0.5, 1.0, 1.5, 2.62, 3.3):
            axis = tomography.wigner_grid(n, extent).betas[:n].real
            assert np.array_equal(-axis, axis[::-1])
    betas = tomography.wigner_grid().betas
    assert tomography.parity_model(betas, 32).packed.shape == (1024, 121)
    for n, extent in ((0, 1.0), (tomography.MAX_GRID + 1, 1.0), (3, 0.0),
                      (3, -1.0), (3, np.inf), (3, np.nan)):
        with pytest.raises(ValidationError):
            tomography.wigner_grid(n, extent)
    # a non-finite beta has no parity operator (np.unique used to fold every
    # NaN into one orbit of a NaN model), and a 2-D array of probes or betas
    # is refused by name, not flattened into one ket, operator or prediction
    # row per entry
    square = np.zeros((2, 2)) + 0.3
    ks = channel.unitary_channel(np.eye(4))
    for call, what in (
            (lambda: tomography.parity_model(np.full(9, np.nan + 0j), 4), "betas"),
            (lambda: tomography.displaced_parity_ops([0.5, np.inf], 4), "betas"),
            (lambda: tomography.wigner_value(np.eye(4) / 4, complex("nan")), "beta"),
            (lambda: tomography.probe_kets(square, 4), "alphas"),
            (lambda: tomography.parity_model(square, 4), "betas"),
            (lambda: tomography.displaced_parity_ops(square, 4), "betas"),
            (lambda: reconstruct.predict_wigner(ks, square, [0.3]), "alphas"),
            (lambda: reconstruct.predict_wigner(ks, [0.0], square), "betas")):
        with pytest.raises(ValidationError, match=what):
            call()


def test_cold_builds_allocate_no_dense_stacks():
    # tracemalloc peaks of two cold builds the CLI makes: the packed parity
    # model of the contract grid (a dense (441, 32, 32) stack alone would be
    # 7.2 MB) and the 36 display rows of the dim-32 Gell-Mann transfer
    # matrix (all 1024 elements alone would be 16.8 MB)
    betas = tomography.wigner_grid().betas * (1 + 1e-12)  # not in the cache
    ob = basis.logical_ordered_basis(gates.BinomialCode(32))
    ch = channel.random_channel(32, 4, np.random.default_rng(32))
    tracemalloc.start()
    try:
        tomography.parity_model(betas, 32)
        parity_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]  # the cached model
        tracemalloc.reset_peak()
        gm = basis.gellmann_set(ob)
        basis.transfer_matrix(ch, gm, rows=basis.display_indices(gm))
        gtm_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert parity_peak <= 2.5e6  # the 1 MB orbit columns, built as rows and copied
    assert gtm_peak <= 8e6


def test_reading_ops_leaves_the_cached_model_unchanged():
    # displaced_parity_ops unpacks the stack on every call and keeps none
    # of it: the cached model gains no attribute and holds no dense stack
    # once the caller drops it
    betas = tomography.wigner_grid().betas * (1 + 2e-12)  # not in the cache
    model = tomography.parity_model(betas, 32)
    before = dict(vars(model))
    tracemalloc.start()
    try:
        ops = tomography.displaced_parity_ops(betas, 32)
        assert ops.shape == (441, 32, 32) and not ops.flags.writeable
        del ops
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert vars(model).keys() == before.keys()
    assert all(vars(model)[k] is v for k, v in before.items())
    assert held <= 1e5  # the stack alone is 7.2 MB


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
    assert tomography.dataset_from_json(dict(good, shots=10.0)).shots == 10
    big = tomography.dataset_from_json(dict(good, shots=2**63 - 1))
    assert big.shots == tomography.MAX_SHOTS
    for bad in (
        dict(good, values=[[float("nan")] * 9] * 4),
        dict(good, shots=-5, seed=-3),
        dict(good, shots=-5),
        dict(good, seed=-3),
        dict(good, shots=2.5),
        dict(good, seed=0.5),
        dict(good, shots=True),
        # past the int64 that numpy's binomial draw takes
        dict(good, shots=2**63),
        dict(good, shots="10"),
        dict(good, dim=0),
        # a loose cast would load each of these as a valid dataset
        dict(good, values=[["0.5"] * 9] * 4),
        dict(good, probes=[[True, False]] * 4),
        dict(good, normalized=0),
    ):
        with pytest.raises(DataQualityError):
            tomography.dataset_from_json(bad)


def test_shape_validation():
    with pytest.raises(DataQualityError):
        tomography.TomographyDataset(
            probes=np.array([0j]), betas=np.array([0j, 1j]),
            values=np.zeros((2, 2)), dim=4, shots=0, seed=0,
        )


@pytest.mark.parametrize("probes, betas, values", [
    # 2-D probes whose size matches: it would save a file that cannot load
    (np.zeros((2, 2)), np.zeros(3), np.zeros((4, 3))),
    (np.zeros(4), np.zeros((3, 1)), np.zeros((4, 3))),
    (np.array(0.5), np.zeros(3), np.zeros((1, 3))),
    (np.zeros(4), np.zeros(3), np.zeros(12)),
    (np.zeros(4), np.zeros(3), np.zeros((4, 3, 1))),
    # no probe or no point: the saved [] would not read back as (0, 2) pairs
    (np.zeros(0), np.zeros(2), np.zeros((0, 2))),
    (np.zeros(2), [], np.zeros((2, 0))),
])
def test_datasets_that_could_not_load_do_not_construct(probes, betas, values):
    with pytest.raises(DataQualityError, match="of shape|holds no"):
        tomography.TomographyDataset(probes=probes, betas=betas, values=values,
                                     dim=4, shots=0, seed=0)


@pytest.mark.parametrize("probes, betas, values", [
    ([0.5, 1j, 2], (0, -0.5j), [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
    (np.array([0.25 + 0.5j]), np.arange(3), np.ones((1, 3), dtype=int)),
])
def test_a_dataset_that_constructs_loads_back_equal(tmp_path, probes, betas, values):
    ds = tomography.TomographyDataset(probes=probes, betas=betas, values=values,
                                      dim=4, shots=7, seed=3)
    path = tmp_path / "ds.json"
    tomography.save_dataset(ds, path)
    back = tomography.load_dataset(path)
    for name in ("probes", "betas", "values"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (back.dim, back.shots, back.seed) == (4, 7, 3)


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
