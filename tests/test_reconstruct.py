"""Tests for the stacked-isometry reconstruction module."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csqpt import gates, reconstruct as rec, tomography as tomo
from csqpt.channel import (
    KrausSet,
    apply,
    kraus_to_choi,
    random_channel,
    unitary_channel,
)
from csqpt.errors import (
    DimensionMismatchError,
    RetractionError,
    ValidationError,
)
from csqpt.fock import displacement, parity

# small dims are used on purpose; coherent-probe truncation there is expected
pytestmark = pytest.mark.filterwarnings("ignore::csqpt.errors.TruncationWarning")


def small_dataset(ks, n_probe=3, a_max=1.0, n_beta=3, b_max=1.2, **kw):
    return tomo.simulate_dataset(
        ks, tomo.probe_grid(n_probe, a_max), tomo.wigner_grid(n_beta, b_max), **kw
    )


def fidelity_to_unitary(ks, u):
    """Uhlmann fidelity of the Choi state against a unitary's (rank one)."""
    d = u.shape[0]
    v = u.reshape(-1, order="F")
    c = kraus_to_choi(ks)
    return float((v.conj() @ c @ v).real) / d**2


def test_config_validation():
    cfg = rec.ReconstructionConfig()
    assert cfg.rank == 4 and cfg.dim == 32 and cfg.gamma == 4e-4
    with pytest.raises(ValidationError):
        rec.ReconstructionConfig(rank=0)
    with pytest.raises(ValidationError):
        rec.ReconstructionConfig(gamma=-1e-3)
    with pytest.raises(ValidationError):
        rec.ReconstructionConfig(step_size=0.0)
    with pytest.raises(ValidationError):
        rec.ReconstructionConfig(init="warm")
    # non-finite values would pass a sign check and break the fit
    for bad in ({"gamma": np.inf}, {"gamma": np.nan}, {"step_size": np.inf},
                {"step_size": np.nan}, {"grad_tol": np.nan}, {"seed": -1}):
        with pytest.raises(ValidationError):
            rec.ReconstructionConfig(**bad)


def test_isometry_point_validation():
    with pytest.raises(ValidationError):
        rec.IsometryPoint(2.0 * np.eye(4))
    with pytest.raises(DimensionMismatchError):
        rec.IsometryPoint(np.ones((7, 3)))
    pt = rec.stack_kraus(np.stack([np.eye(3), np.zeros((3, 3))]))
    assert pt.rank == 2 and pt.dim == 3
    assert np.array_equal(pt.kraus()[0], np.eye(3))


def test_predict_identity_stack():
    ident = KrausSet(np.eye(8)[None])
    ds = small_dataset(ident)
    pt = rec.stack_kraus(ident.operators)
    pred = rec.predict_wigner(pt, ds.probes, ds.betas)
    assert np.abs(pred - ds.values).max() < 1e-12


def test_predict_matches_simulate_for_x_gate():
    # the Kraus-set and the stacked form through the shared forward model
    u = gates.compose_unitary(gates.x_gate_sequence(), 32)
    ks = unitary_channel(u)
    pg, wg = tomo.probe_grid(), tomo.wigner_grid()
    ds = tomo.simulate_dataset(ks, pg, wg)
    pred = rec.predict_wigner(rec.stack_kraus(ks.operators), pg, wg)
    assert np.abs(pred - ds.values).max() < 1e-10


def test_predict_bounded_by_parity():
    rng = np.random.default_rng(3)
    ks = random_channel(8, 3, rng)
    pred = rec.predict_wigner(
        rec.stack_kraus(ks.operators), tomo.probe_grid(3, 1.0),
        tomo.wigner_grid(5, 2.0),
    )
    assert np.abs(pred).max() <= 2 / np.pi + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_packed_forward_model_matches_dense_reference(seed):
    # the packed-GEMM forward model and its gradient against the dense
    # density-matrix and tensordot formulas, at random small sizes
    rng = np.random.default_rng(100 + seed)
    d, r = int(rng.integers(5, 9)), int(rng.integers(1, 4))
    if seed == 4:
        r = 3 * d  # a rank above the dimension, like a noisy gate's
    n_p, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    alphas = 0.6 * (rng.standard_normal(n_p) + 1j * rng.standard_normal(n_p))
    betas = 0.9 * (rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b))
    ks = random_channel(d, r, rng)
    v = ks.operators.reshape(r * d, d)
    kets = rec._probe_kets(alphas, d)
    mops = tomo.displaced_parity_ops(betas, d)

    ref = np.empty((n_p, n_b))
    for i, ket in enumerate(kets):
        out = apply(ks, np.outer(ket, ket.conj()))
        for j, beta in enumerate(betas):
            disp = displacement(beta, d)
            m = disp @ parity(d) @ disp.conj().T
            ref[i, j] = (2 / np.pi) * np.trace(m @ out).real
    assert np.abs(rec._predict(v, kets, mops) - ref).max() <= 1e-12
    ds = tomo.simulate_dataset(ks, tomo.ProbeGrid(alphas), tomo.WignerGrid(betas))
    assert np.abs(ds.values - ref).max() <= 1e-12

    resid = rng.standard_normal((n_p, n_b))
    phi = (v @ kets.T).reshape(r, d, -1)  # phi[k, :, i] = K_k |alpha_i>
    n = np.tensordot(resid, mops, axes=([1], [0]))  # N_i = sum_j resid_ij M_j
    nphi = np.einsum("iab,kbi->kai", n, phi)
    g_ref = 2.0 * np.einsum("kai,ic->kac", nphi, kets.conj()).reshape(r * d, d)
    g = rec._l2_gradient(v, kets, mops, resid)
    assert np.abs(g - g_ref).max() <= 1e-12
    # a parity stack the cache does not hold is packed on the spot
    assert np.array_equal(rec._l2_gradient(v, kets, np.array(mops), resid), g)


def test_forward_model_caches_read_only_and_bounded():
    rng = np.random.default_rng(16)
    truth = random_channel(5, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(rank=2, dim=5, max_iters=20, seed=2)
    before, _ = rec.reconstruct(ds, cfg)
    cached = (
        tomo.probe_kets(ds.probes, 5),
        tomo.displaced_parity_ops(ds.betas, 5),
        tomo.parity_model(ds.betas, 5).packed,
    )
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0
    after, _ = rec.reconstruct(ds, cfg)
    assert np.array_equal(after.operators, before.operators)

    for n in range(tomo.CACHE_ENTRIES + 2):
        tomo.probe_kets([0.1 * n], 4)
        tomo.parity_model([0.1j * n], 4)
    assert len(tomo._PROBE_KET_CACHE) == tomo.CACHE_ENTRIES
    assert len(tomo._PARITY_CACHE) == tomo.CACHE_ENTRIES


def test_loss_at_ground_truth():
    rng = np.random.default_rng(7)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    pt = rec.stack_kraus(truth.operators)
    rep = rec.loss(pt, ds, 0.0)
    assert rep.total <= 1e-16 * ds.values.size
    assert rep.total == rep.l2


def test_loss_l1_accounting():
    rng = np.random.default_rng(8)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    pt = rec.retract(rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6)))
    r0 = rec.loss(pt, ds, 0.0)
    r1 = rec.loss(pt, ds, 2e-3)
    r2 = rec.loss(pt, ds, 4e-3)
    assert abs(r1.total - (r1.l2 + 2e-3 * r1.l1)) < 1e-12
    assert abs((r2.total - r2.l2) - 2 * (r1.total - r1.l2)) < 1e-12
    assert r0.l2 == r1.l2 == r2.l2


def fd_wirtinger_mismatch(total, g, m0, h=1e-5):
    """Relative mismatch of 2 g against central differences of total at m0."""
    # no coordinate sits within the step of an L1 kink
    assert min(np.abs(m0.real).min(), np.abs(m0.imag).min()) > 10 * h
    fd = np.zeros_like(m0)
    for a in range(m0.shape[0]):
        for b in range(m0.shape[1]):
            e = np.zeros_like(m0)
            e[a, b] = h
            fd[a, b] = (total(m0 + e) - total(m0 - e)) / (2 * h) + 1j * (
                total(m0 + 1j * e) - total(m0 - 1j * e)
            ) / (2 * h)
    # real-coordinate derivatives recover twice the Wirtinger gradient
    return np.linalg.norm(fd - 2 * g) / np.linalg.norm(fd)


def test_gradient_matches_finite_differences():
    d, r = 6, 2
    rng = np.random.default_rng(5)
    truth = random_channel(d, r, rng)
    ds = tomo.simulate_dataset(
        truth, tomo.probe_grid(3, 1.0), tomo.wigner_grid(3, 1.2)
    )
    pt = rec.retract(rng.standard_normal((r * d, d)) + 1j * rng.standard_normal((r * d, d)))
    gamma = 4e-4
    g = rec.euclidean_gradient(pt, ds, gamma)
    kets = rec._probe_kets(ds.probes, d)
    mops = tomo.displaced_parity_ops(ds.betas, d)

    def total(m):
        return rec._loss_terms(m, kets, mops, ds.values, gamma)[2]

    assert fd_wirtinger_mismatch(total, g, pt.matrix) <= 1e-5


def shot_weights(ds):
    """Mean-1 inverse binomial variances with the documented 4/shots floor."""
    var = np.maximum(1 - (np.pi * ds.values / 2) ** 2, 4 / ds.shots)
    return (1 / var) / (1 / var).mean()


def test_weighted_gradient_matches_finite_differences():
    # a shot-noise dataset is fitted with variance-weighted residuals; the
    # public gradient must be the gradient of that weighted loss
    d, r = 6, 2
    rng = np.random.default_rng(6)
    truth = random_channel(d, r, rng)
    ds = tomo.simulate_dataset(
        truth, tomo.probe_grid(3, 1.0), tomo.wigner_grid(3, 1.2),
        shots=50, seed=3,
    )
    w = shot_weights(ds)
    assert w.max() / w.min() > 1.5  # the weighting is not close to uniform
    pt = rec.retract(rng.standard_normal((r * d, d)) + 1j * rng.standard_normal((r * d, d)))
    gamma = 4e-4
    g = rec.euclidean_gradient(pt, ds, gamma)
    kets = rec._probe_kets(ds.probes, d)
    mops = tomo.displaced_parity_ops(ds.betas, d)

    def total(m):
        resid = rec._predict(m, kets, mops) - ds.values
        return float((w * resid**2).sum()) + gamma * rec._l1_parts(m)

    assert fd_wirtinger_mismatch(total, g, pt.matrix) <= 1e-5
    # loss reports the same weighted objective; exact data stays unweighted
    rep = rec.loss(pt, ds, gamma)
    assert abs(rep.total - total(pt.matrix)) <= 1e-12 * rep.total
    exact = rec.loss(pt, replace(ds, shots=0), gamma)
    resid = rec.predict_wigner(pt, ds.probes, ds.betas) - ds.values
    assert exact.l2 == float((resid * resid).sum())


def random_isometry(rng, r, d):
    return rec.retract(
        rng.standard_normal((r * d, d)) + 1j * rng.standard_normal((r * d, d))
    ).matrix


def random_tangent(rng, v):
    z = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return rec._project(v, z)


@pytest.mark.parametrize("shots", [0, 50])
@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(4, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_gradient_matches_finite_differences_random_sizes(shots, d, r, seed):
    # unweighted (exact data) and variance-weighted (shot data) loss
    rng = np.random.default_rng(seed)
    truth = random_channel(d, r, rng)
    ds = tomo.simulate_dataset(
        truth, tomo.probe_grid(3, 1.0), tomo.wigner_grid(3, 1.2),
        shots=shots, seed=seed,
    )
    w = shot_weights(ds) if shots else 1.0
    pt = rec.IsometryPoint(random_isometry(rng, r, d))
    h = 1e-5
    assume(min(np.abs(pt.matrix.real).min(), np.abs(pt.matrix.imag).min()) > 10 * h)
    gamma = 4e-4
    g = rec.euclidean_gradient(pt, ds, gamma)
    kets = rec._probe_kets(ds.probes, d)
    mops = tomo.displaced_parity_ops(ds.betas, d)

    def total(m):
        resid = rec._predict(m, kets, mops) - ds.values
        return float((w * resid**2).sum()) + gamma * rec._l1_parts(m)

    assert fd_wirtinger_mismatch(total, g, pt.matrix, h) <= 1e-5


def test_gradient_stationary_at_truth():
    rng = np.random.default_rng(9)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    pt = rec.stack_kraus(truth.operators)
    xi = rec.tangent_project(pt, rec.euclidean_gradient(pt, ds, 0.0))
    assert np.linalg.norm(xi) <= 1e-8


def test_gradient_linear_in_data():
    # the L2 gradient is affine in the data: G(c y) - c G(y) = (1-c) G(0)
    rng = np.random.default_rng(10)
    truth = random_channel(5, 2, rng)
    ds = small_dataset(truth)
    pt = rec.retract(rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5)))

    def grad_for(values):
        scaled = tomo.TomographyDataset(
            probes=ds.probes, betas=ds.betas, values=values,
            dim=ds.dim, shots=0, seed=0,
        )
        return rec.euclidean_gradient(pt, scaled, 0.0)

    c = 3.0
    lhs = grad_for(c * ds.values) - c * grad_for(ds.values)
    rhs = (1 - c) * grad_for(np.zeros_like(ds.values))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_tangent_projection_properties():
    rng = np.random.default_rng(11)
    pt = rec.retract(rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))
    z = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    xi = rec.tangent_project(pt, z)
    v = pt.matrix
    skew = v.conj().T @ xi + xi.conj().T @ v
    assert np.abs(skew).max() < 1e-12
    assert np.abs(rec.tangent_project(pt, xi) - xi).max() < 1e-12


def test_retraction_properties():
    rng = np.random.default_rng(12)
    pt = rec.retract(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    v = pt.matrix
    assert np.abs(rec.retract(v).matrix - v).max() < 1e-12
    assert np.abs(rec.retract(2.0 * v).matrix - v).max() < 1e-12
    with pytest.raises(RetractionError):
        rec.retract(np.zeros((8, 4)))
    # second-order agreement with the tangent step
    delta = 1e-3 * rec.tangent_project(pt, rng.standard_normal((8, 4)) + 0j)
    moved = rec.retract(v + delta).matrix
    err = np.linalg.norm(moved - (v + delta))
    assert err < 10 * np.linalg.norm(delta) ** 2


@settings(derandomize=True, deadline=None)
@given(
    st.integers(2, 8), st.integers(1, 3), st.floats(0.0, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_tangent_retraction_matches_svd_polar(d, r, t, seed):
    rng = np.random.default_rng(seed)
    v = random_isometry(rng, r, d)
    xi = random_tangent(rng, v)
    moved = rec._retraction_along(v, xi)(t)
    assert np.abs(moved - rec._polar(v - t * xi)).max() <= 1e-12
    assert np.abs(moved.conj().T @ moved - np.eye(d)).max() <= 1e-12


def test_tangent_retraction_drift():
    # chained closed-form retractions assume an exact isometry; the defect
    # they leave must stay at rounding level over a long fit
    rng = np.random.default_rng(17)
    d = 8
    v = random_isometry(rng, 2, d)
    for _ in range(5000):
        xi = random_tangent(rng, v)
        v = rec._retraction_along(v, xi)(0.1)
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-11


def test_fit_iterates_stay_on_manifold(monkeypatch):
    # a rank-2 fit that cannot match its rank-3 truth: the gradient's large
    # normal part grows any isometry defect the closed-form retraction is
    # left with, until the fit stops at the step floor with the loss of a
    # stack that is not a channel
    truth = random_channel(8, 3, np.random.default_rng(0))
    ds = small_dataset(truth, n_probe=5, n_beta=11, b_max=2.0)
    cfg = rec.ReconstructionConfig(rank=2, dim=8)
    defects = []
    real_terms = rec._loss_terms

    def recording(v, *args, **kwargs):
        defects.append(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
        return real_terms(v, *args, **kwargs)

    monkeypatch.setattr(rec, "_loss_terms", recording)
    ks, report = rec.reconstruct(ds, cfg)
    assert len(defects) > cfg.max_iters and max(defects) <= 1e-12
    returned = rec.loss(rec.stack_kraus(ks.operators), ds, cfg.gamma).total
    assert report.total == pytest.approx(returned, rel=1e-12)


def test_fit_linear_algebra_counts(monkeypatch):
    # a fit makes two SVDs (initial_point, final retract) whatever its length,
    # and at most one eigh per iteration for all of its trial steps
    rng = np.random.default_rng(18)
    truth = random_channel(5, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=5, gamma=1e-4, max_iters=10, grad_tol=0.0, seed=6,
    )
    rec.reconstruct(ds, replace(cfg, max_iters=0))  # fill the model caches
    counts = {}

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapped

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    for iters in (3, 10):
        counts.clear()
        _, rep = rec.reconstruct(ds, replace(cfg, max_iters=iters))
        assert rep.iters_used == iters
        assert counts.get("svd", 0) == 2
        assert counts.get("eigh", 0) <= iters


def test_line_search_evaluations_per_step(monkeypatch):
    # the first trial of an iteration is the step accepted last time (grown
    # only after GROW_AFTER first-trial acceptances in a row), so most
    # iterations cost one forward pass; doubling the step every iteration
    # made almost every one cost two (1.99 per step on this fit)
    rng = np.random.default_rng(19)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=6, gamma=1e-4, max_iters=200, grad_tol=0.0, seed=7,
    )
    calls = []
    real = rec._loss_terms

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rec, "_loss_terms", counting)
    counts = []
    for _ in range(2):
        calls.clear()
        _, rep = rec.reconstruct(ds, cfg)
        counts.append(len(calls))
    assert rep.iters_used == 200
    assert counts[0] == counts[1]  # deterministic, rerun for rerun
    # one evaluation at the start, then the trials of the accepted steps
    assert (counts[0] - 1) / rep.iters_used <= 1.5
    assert np.all(np.diff(rep.history) <= 0)


def test_stop_reasons(tmp_path):
    ident = KrausSet(np.eye(6)[None])
    ds = small_dataset(ident)
    cfg = rec.ReconstructionConfig(
        rank=1, dim=6, gamma=0.0, max_iters=500, grad_tol=1e-3, seed=1,
    )
    cases = {
        "grad_tol": cfg,
        "max_iters": replace(cfg, max_iters=2, grad_tol=0.0),
        "line_search_floor": replace(cfg, step_size=rec.MIN_STEP / 2),
    }
    iters = {}
    for reason, c in cases.items():
        ks, rep = rec.reconstruct(ds, c)
        assert ks.certified
        assert rep.stop_reason == reason
        assert rep.converged == (reason == "grad_tol")
        iters[reason] = rep.iters_used
        path = tmp_path / f"{reason}.json"
        rec.save_result(ks, rep, c, path)
        assert rec.load_result(path)[1].stop_reason == reason
    assert 0 < iters["grad_tol"] < 500
    assert iters["line_search_floor"] == 0  # stopped before any step

    # a v1 file written before stop_reason existed still loads
    data = rec.result_to_json(ks, rep, c)
    del data["loss"]["stop_reason"]
    assert rec.result_from_json(data)[1].stop_reason is None
    with pytest.raises(ValidationError):
        replace(rep, stop_reason="tired")
    with pytest.raises(ValidationError):
        replace(rep, converged=True)


def test_reconstruct_identity_channel():
    ident = KrausSet(np.eye(6)[None])
    ds = tomo.simulate_dataset(
        ident, tomo.probe_grid(3, 1.0), tomo.wigner_grid(5, 1.5)
    )
    cfg = rec.ReconstructionConfig(
        rank=1, dim=6, gamma=0.0, max_iters=500, step_size=0.1,
        grad_tol=1e-9, seed=1,
    )
    ks, rep = rec.reconstruct(ds, cfg)
    assert ks.certified
    assert rep.converged
    assert fidelity_to_unitary(ks, np.eye(6)) >= 0.999
    hist = np.array(rep.history)
    assert np.all(np.diff(hist) <= 0)
    assert rep.iters_used == len(rep.history) - 1
    assert abs(rep.total - (rep.l2 + cfg.gamma * rep.l1)) < 1e-12


def test_reconstruct_bit_identical_reruns():
    rng = np.random.default_rng(13)
    truth = random_channel(5, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=5, gamma=1e-4, max_iters=60, step_size=0.1, seed=21,
    )
    a, rep_a = rec.reconstruct(ds, cfg)
    b, rep_b = rec.reconstruct(ds, cfg)
    assert np.array_equal(a.operators, b.operators)
    assert rep_a.history == rep_b.history


def test_rank_saturation():
    # extra Kraus rank cannot fit noiseless rank-1 data any better
    ident = KrausSet(np.eye(5)[None])
    ds = small_dataset(ident)
    losses = {}
    for r in (1, 2):
        cfg = rec.ReconstructionConfig(
            rank=r, dim=5, gamma=0.0, max_iters=3000, step_size=0.1,
            grad_tol=1e-12, seed=3,
        )
        _, rep = rec.reconstruct(ds, cfg)
        losses[r] = rep.l2
    assert losses[2] >= losses[1] - 1e-10


def test_nonconvergence_flag():
    rng = np.random.default_rng(14)
    truth = random_channel(5, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=5, gamma=0.0, max_iters=2, step_size=0.1,
        grad_tol=1e-14, seed=4,
    )
    ks, rep = rec.reconstruct(ds, cfg)
    assert not rep.converged
    assert rep.iters_used == 2
    assert ks.certified


def test_reconstruct_dim_mismatch():
    ident = KrausSet(np.eye(6)[None])
    ds = small_dataset(ident)
    with pytest.raises(DimensionMismatchError):
        rec.reconstruct(ds, rec.ReconstructionConfig(rank=1, dim=8))


def test_result_json_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    truth = random_channel(4, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=4, gamma=1e-4, max_iters=40, step_size=0.1, seed=5,
    )
    ks, rep = rec.reconstruct(ds, cfg)
    path = tmp_path / "result.json"
    rec.save_result(ks, rep, cfg, path)
    ks2, rep2, cfg2 = rec.load_result(path)
    assert cfg2 == cfg
    assert np.abs(ks2.operators - ks.operators).max() < 1e-15
    assert rep2.history == rep.history
    assert rep2.converged == rep.converged

    data = rec.result_to_json(ks, rep, cfg)
    assert data["schema"] == "csqpt-result-v1"
    data_bad = dict(data, schema="csqpt-result-v0")
    with pytest.raises(ValidationError):
        rec.result_from_json(data_bad)
