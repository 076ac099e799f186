"""Tests for the stacked-isometry reconstruction module."""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csqpt import gates, reconstruct as rec, tomography as tomo
from csqpt.channel import (
    KrausSet,
    apply,
    cptp_defect,
    kraus_to_choi,
    kraus_to_json,
    random_channel,
    unitary_channel,
)
from csqpt.errors import (
    DimensionMismatchError,
    RetractionError,
    ValidationError,
)
from csqpt.fock import displacement

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
                {"step_size": np.nan}, {"grad_tol": np.nan}, {"seed": -1},
                {"rank": rec.MAX_RANK + 1}, {"dim": rec.MAX_DIM + 1}):
        with pytest.raises(ValidationError):
            rec.ReconstructionConfig(**bad)
    # library callers get the file rule: a bool, a fraction or a string is
    # refused at construction, not as a raw TypeError inside the fit, and a
    # whole float becomes an int
    for bad in ({"rank": True}, {"rank": 2.5}, {"max_iters": "30"},
                {"gamma": True}, {"step_size": "0.1"}):
        (key,) = bad
        with pytest.raises(ValidationError, match=key):
            rec.ReconstructionConfig(**bad)
    cfg = rec.ReconstructionConfig(dim=32.0, max_iters=2.0)
    assert (type(cfg.dim), type(cfg.max_iters)) == (int, int)
    assert (cfg.dim, cfg.max_iters) == (32, 2)


def test_stack_kraus_validation():
    with pytest.raises(ValidationError):
        rec.stack_kraus(2.0 * np.eye(4)[None])
    with pytest.raises(DimensionMismatchError):
        rec.retract(np.ones((7, 3)))
    with pytest.raises(ValidationError, match="shape"):
        rec.stack_kraus(np.ones((7, 3)))
    pt = rec.stack_kraus(np.stack([np.eye(3), np.zeros((3, 3))]))
    assert pt.rank == 2 and pt.dim == 3
    assert np.array_equal(pt.operators[0], np.eye(3))
    # the stack view of the same read-only operators
    assert pt.matrix.shape == (6, 3) and not pt.matrix.flags.writeable
    assert np.array_equal(pt.matrix[:3], np.eye(3))


def test_fit_helpers_refuse_a_certified_set_that_is_no_isometry():
    # one rule, ISOMETRY_TOL, for every stack the fit helpers take; a
    # defect between it and CPTP_TOL still certifies the set as a channel
    rng = np.random.default_rng(4)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    loose = KrausSet((1 + 1e-8) * truth.operators)
    assert 1e-8 < cptp_defect(loose.operators) < 1e-6 and loose.certified
    for call in (lambda ks: rec.loss(ks, ds, 0.0),
                 lambda ks: rec.predict_wigner(ks, ds.probes, ds.betas),
                 lambda ks: rec.euclidean_gradient(ks, ds, 0.0)):
        call(truth)
        with pytest.raises(ValidationError, match="not an isometry"):
            call(loose)
    with pytest.raises(ValidationError, match="not an isometry"):
        rec.stack_kraus(loose.operators)


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
    kets = tomo.probe_kets(alphas, d)
    mops = tomo.displaced_parity_ops(betas, d)

    ref = np.empty((n_p, n_b))
    for i, ket in enumerate(kets):
        out = apply(ks, np.outer(ket, ket.conj()))
        for j, beta in enumerate(betas):
            disp = displacement(beta, d)
            m = disp @ np.diag((-1.0) ** np.arange(d)) @ disp.conj().T
            ref[i, j] = (2 / np.pi) * np.trace(m @ out).real
    model = tomo.parity_model(betas, d)
    pred = model.image_wigner(tomo._images(v, kets))
    assert np.abs(pred - ref).max() <= 1e-12
    # out is the last probe's output state
    assert abs(tomo.wigner_value(out, betas[-1]) - ref[-1, -1]) <= 1e-12
    ds = tomo.simulate_dataset(ks, tomo.ProbeGrid(alphas), tomo.WignerGrid(betas))
    assert np.abs(ds.values - ref).max() <= 1e-12

    resid = rng.standard_normal((n_p, n_b))
    phi = (v @ kets.T).reshape(r, d, -1)  # phi[k, :, i] = K_k |alpha_i>
    n = np.tensordot(resid, mops, axes=([1], [0]))  # N_i = sum_j resid_ij M_j
    nphi = np.einsum("iab,kbi->kai", n, phi)
    g_ref = 2.0 * np.einsum("kai,ic->kac", nphi, kets.conj()).reshape(r * d, d)
    images = tomo._images(v, kets)
    ds = tomo.TomographyDataset(alphas, betas, ref, d, 0, 0)
    g = rec._Objective(ds, d, 0.0, "stack").gradient(v, resid, images)
    assert np.abs(g - g_ref).max() <= 1e-12


def test_forward_model_caches_read_only_and_bounded():
    rng = np.random.default_rng(16)
    truth = random_channel(5, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(rank=2, dim=5, max_iters=20, seed=2)
    model = tomo.parity_model(ds.betas, 5)
    keys = set(vars(model))
    before, _ = rec.reconstruct(ds, cfg)
    # the fit's workspace is its objective's: the cached model gains nothing
    assert tomo.parity_model(ds.betas, 5) is model and set(vars(model)) == keys
    cached = (
        tomo.probe_kets(ds.probes, 5),
        tomo.displaced_parity_ops(ds.betas, 5),
        *(x for x in vars(model).values() if isinstance(x, np.ndarray)),
    )
    for arr in cached:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
        with pytest.raises(ValueError):
            arr *= 2
    after, _ = rec.reconstruct(ds, cfg)
    assert np.array_equal(after.operators, before.operators)

    for n in range(tomo.CACHE_ENTRIES + 2):
        tomo.probe_kets([0.1 * n], 4)
        tomo.parity_model([0.1j * n], 4)
    for cache in (tomo._cached_kets, tomo._cached_model):
        info = cache.cache_info()
        assert info.currsize == info.maxsize == tomo.CACHE_ENTRIES
    # a one-off wigner_value leaves the parity cache as it was
    info = tomo._cached_model.cache_info()
    tomo.wigner_value(np.eye(4) / 4, 0.3 + 0.2j)
    assert tomo._cached_model.cache_info() == info


def test_loss_at_ground_truth():
    rng = np.random.default_rng(7)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    pt = rec.stack_kraus(truth.operators)
    rep = rec.loss(pt, ds, 0.0)
    assert rep.total <= 1e-16 * ds.values.size
    assert rep.total == rep.l2
    # no fit ran, so nothing converged and nothing stopped
    assert not rep.converged and rep.stop_reason is None


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


@pytest.mark.parametrize("gamma, valid", [
    (0, True), (4e-4, True),
    (np.nan, False), (-1.0, False), (np.inf, False), (True, False), ("0.1", False),
])
def test_loss_and_gradient_read_gamma_like_the_config(gamma, valid):
    # gamma is read once, by the objective, with ReconstructionConfig's rule:
    # before, loss(nan) was NaN while the gradient dropped the L1 term, -1
    # gave a negative loss, inf a non-finite gradient, True counted as 1
    # and "0.1" raised a raw TypeError
    rng = np.random.default_rng(24)
    ds = small_dataset(random_channel(5, 2, rng))
    pt = rec.retract(rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5)))
    if not valid:
        for fn in (rec.loss, rec.euclidean_gradient):
            with pytest.raises(ValidationError, match="gamma"):
                fn(pt, ds, gamma)
        return
    rep = rec.loss(pt, ds, gamma)
    assert rep.total == rep.l2 + gamma * rep.l1
    assert rep.l2 == rec.loss(pt, ds, 0.0).l2
    sign = np.sign(pt.matrix.view(float)).view(complex)
    expected = rec.euclidean_gradient(pt, ds, 0.0) + (0.5 * gamma) * sign
    assert np.array_equal(rec.euclidean_gradient(pt, ds, gamma), expected)


def test_objective_workspace_is_reused_scratch():
    # an objective writes its output states, coordinate rows and N_i into
    # one workspace on every evaluation: at A after a visit to B it gives a
    # fresh objective's terms and gradient bit for bit, and the model's
    # without a workspace; no array it returns shares the buffers, so a fit
    # cannot hold on to a value the next evaluation overwrites
    rng = np.random.default_rng(26)
    ds = small_dataset(random_channel(5, 2, rng), shots=200)  # weighted

    def point():
        w = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
        return rec.retract(w).matrix

    a, b = point(), point()
    objective = rec._Objective(ds, 5, 1e-3, "stack")
    evaluations = []
    for v in (a, b, a):
        terms = objective.terms(v)
        evaluations.append((*terms, objective.gradient(v, *terms[3:])))
    fresh = rec._Objective(ds, 5, 1e-3, "stack")
    terms = fresh.terms(a)
    reference = (*terms, fresh.gradient(a, *terms[3:]))
    for got in (evaluations[0], evaluations[2]):
        assert got[:3] == reference[:3]
        assert all(np.array_equal(x, y) for x, y in zip(got[3:], reference[3:]))

    model, work = objective.model, objective.work
    images = tomo._images(a, objective.kets)
    w = model.image_wigner(images)
    assert np.array_equal(w, model.expect(images.swapaxes(1, 2) @ images.conj()))
    assert np.array_equal(reference[3], objective.weights * (w - ds.values))
    returned = [x for e in evaluations for x in e[3:]]
    returned += [model.image_wigner(images, work), model.expect(work[0], work)]
    for x in returned:
        assert not any(np.shares_memory(x, buf) for buf in work)
    # adjoint's N_i are the workspace's first buffer itself
    assert model.adjoint(reference[3], work) is work[0]


def test_exact_data_weigh_one():
    # an exact dataset's weights are all ones, and its l2 is the plain sum
    # of squares bit for bit
    rng = np.random.default_rng(27)
    ds = small_dataset(random_channel(5, 2, rng))
    weights = rec._residual_weights(ds)
    assert weights.shape == ds.values.shape and (weights == 1.0).all()
    v = random_isometry(rng, 2, 5)
    objective = rec._Objective(ds, 5, 1e-3, "stack")
    l2, l1, total, wresid, _ = objective.terms(v)
    resid = objective.model.image_wigner(tomo._images(v, objective.kets)) - ds.values
    assert l2 == float((resid * resid).sum()) and np.array_equal(wresid, resid)
    assert total == l2 + 1e-3 * float(np.abs(v.view(float)).sum())


def test_loss_reports_the_fits_gradient_norm():
    # loss() of a capped fit's result is the fit's own report, the
    # projected gradient norm included, bit for bit
    rng = np.random.default_rng(28)
    ds = small_dataset(random_channel(6, 2, rng), shots=500, seed=2)
    cfg = rec.ReconstructionConfig(rank=2, dim=6, max_iters=15, grad_tol=0.0)
    ks, report = rec.reconstruct(ds, cfg)
    assert report.stop_reason == "max_iters" and report.grad_norm > 0
    got = rec.loss(ks, ds, cfg.gamma)
    fields = ("l2", "l1", "total", "grad_norm")
    assert [getattr(got, f) for f in fields] == [getattr(report, f) for f in fields]


FIT_FAULTS = """
import resource
from csqpt import gates, reconstruct as rec, tomography as tomo
truth = gates.noisy_gate_process(gates.x_gate_sequence(), None, 32)
ds = tomo.simulate_dataset(truth, tomo.probe_grid(), tomo.wigner_grid())
faults = []
terms = rec._Objective.terms

def counting(self, v):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return terms(self, v)

rec._Objective.terms = counting
rec.reconstruct(ds, rec.ReconstructionConfig(max_iters=120))
print(len(faults), (faults[-1] - faults[20]) / (len(faults) - 21))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads getrusage's minor-fault count as Linux keeps it")
def test_fit_reuses_its_memory():
    # the first fit of a process at the contract settings: once its loop
    # runs, a loss evaluation takes a few minor faults.  An objective that
    # allocates its workspace per evaluation takes about 160, because glibc
    # maps and unmaps the 200-410 KB buffers each time
    env = dict(os.environ, CSQPT_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # csqpt derives them from CSQPT_THREADS
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", FIT_FAULTS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    calls, per_call = proc.stdout.split()
    assert int(calls) > 120
    assert float(per_call) <= 20


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
    objective = rec._Objective(ds, d, gamma, "stack")

    def total(m):
        return objective.terms(m)[2]

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
    kets = tomo.probe_kets(ds.probes, d)
    model = tomo.parity_model(ds.betas, d)

    def total(m):
        resid = model.image_wigner(tomo._images(m, kets)) - ds.values
        return float((w * resid**2).sum()) + gamma * float(np.abs(m.view(float)).sum())

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
    pt = rec.stack_kraus(random_isometry(rng, r, d).reshape(r, d, d))
    h = 1e-5
    assume(min(np.abs(pt.matrix.real).min(), np.abs(pt.matrix.imag).min()) > 10 * h)
    gamma = 4e-4
    g = rec.euclidean_gradient(pt, ds, gamma)
    kets = tomo.probe_kets(ds.probes, d)
    model = tomo.parity_model(ds.betas, d)

    def total(m):
        resid = model.image_wigner(tomo._images(m, kets)) - ds.values
        return float((w * resid**2).sum()) + gamma * float(np.abs(m.view(float)).sum())

    assert fd_wirtinger_mismatch(total, g, pt.matrix, h) <= 1e-5


def test_gradient_stationary_at_truth():
    rng = np.random.default_rng(9)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    pt = rec.stack_kraus(truth.operators)
    xi = rec._project(pt.matrix, rec.euclidean_gradient(pt, ds, 0.0))
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
    v = pt.matrix
    xi = rec._project(v, z)
    skew = v.conj().T @ xi + xi.conj().T @ v
    assert np.abs(skew).max() < 1e-12
    assert np.abs(rec._project(v, xi) - xi).max() < 1e-12


def test_retraction_properties():
    rng = np.random.default_rng(12)
    pt = rec.retract(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    v = pt.matrix
    assert np.abs(rec.retract(v).matrix - v).max() < 1e-12
    assert np.abs(rec.retract(2.0 * v).matrix - v).max() < 1e-12
    with pytest.raises(RetractionError):
        rec.retract(np.zeros((8, 4)))
    # second-order agreement with the tangent step
    delta = 1e-3 * rec._project(v, rng.standard_normal((8, 4)) + 0j)
    moved = rec.retract(v + delta).matrix
    err = np.linalg.norm(moved - (v + delta))
    assert err < 10 * np.linalg.norm(delta) ** 2


@settings(derandomize=True, deadline=None)
@given(
    st.integers(2, 8), st.integers(1, 3), st.floats(0.0, 10.0),
    st.integers(0, 2**32 - 1),
)
# t^2 ||xi||_F^2 = 5152 >= 2 here: the start is scaled before the sweeps
@example(d=8, r=1, t=10.0, seed=3)
def test_tangent_retraction_matches_svd_polar(d, r, t, seed):
    rng = np.random.default_rng(seed)
    v = random_isometry(rng, r, d)
    xi = random_tangent(rng, v)
    moved = rec._retraction_along(v, xi)(t)
    assert np.abs(moved - rec._polar(v - t * xi)).max() <= 1e-12
    assert np.abs(moved.conj().T @ moved - np.eye(d)).max() <= 1e-12


def test_tangent_retraction_corrects_defective_start():
    # the sweeps polar-factor whatever they are given: a start 1e-6 off
    # the manifold lands on the SVD polar factor of v - t xi all the same
    rng = np.random.default_rng(24)
    d = 6
    v = random_isometry(rng, 3, d)
    xi = random_tangent(rng, v)
    v = v + 1e-6 * rng.standard_normal(v.shape) / np.sqrt(v.size)
    assert 1e-7 < np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-5
    for t in (0.0, 0.01, 0.3, 3.0):
        moved = rec._retraction_along(v, xi)(t)
        assert np.abs(moved - rec._polar(v - t * xi)).max() <= 1e-12
        assert np.abs(moved.conj().T @ moved - np.eye(d)).max() <= 1e-12


def test_tangent_retraction_refuses_non_finite_input():
    rng = np.random.default_rng(25)
    v = random_isometry(rng, 2, 4)
    xi = random_tangent(rng, v)
    xi[0, 0] = np.nan
    with pytest.raises(RetractionError):
        rec._retraction_along(v, xi)(0.1)


def test_tangent_retraction_drift():
    # each retraction polar-factors its own start, so the defect of a long
    # chain stays at rounding level instead of accumulating
    rng = np.random.default_rng(17)
    d = 8
    v = random_isometry(rng, 2, d)
    for _ in range(5000):
        xi = random_tangent(rng, v)
        v = rec._retraction_along(v, xi)(0.1)
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-11


@pytest.mark.parametrize("init", rec.INIT_MODES)
@pytest.mark.parametrize("rank, dim", [(4, 32), (1, 6)])
def test_initial_point_is_polar_factor_of_seeded_start(init, rank, dim):
    # the Newton-Schulz start lands on the SVD polar factor of the seeded
    # start; a random-isometry start has singular values near 8-24 at rank 4,
    # dim 32, far outside the sweeps' region of convergence (0, sqrt 3)
    cfg = rec.ReconstructionConfig(rank=rank, dim=dim, seed=11, init=init)
    rng = np.random.default_rng(cfg.seed)
    shape = (rank * dim, dim)
    start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if init == "identity-perturbed":
        start = 1e-2 * start
        start[:dim] += np.eye(dim)
    point = rec.initial_point(cfg)
    assert np.abs(point.matrix - rec._polar(start)).max() <= 1e-12


def test_initial_point_of_ill_conditioned_start(monkeypatch):
    # the sweeps square a start's condition number: from one of condition
    # 1e6 their result misses the manifold by about 1e-5, and a second pass
    # of sweeps on that result lands on it
    dim = 6
    q1, q2 = (np.linalg.qr(np.random.default_rng(s).standard_normal((dim, dim)))[0]
              for s in (1, 2))
    draws = [(q1 * np.logspace(0, -6, dim)) @ q2.T, np.zeros((dim, dim))]

    class Generator:
        def standard_normal(self, shape):
            assert shape == (dim, dim)
            return draws.pop(0)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
    cfg = rec.ReconstructionConfig(rank=1, dim=dim, init="random-isometry")
    point = rec.initial_point(cfg)
    assert not draws
    assert np.linalg.norm(point.matrix.conj().T @ point.matrix - np.eye(dim)) <= 1e-13
    # near the start's polar factor q1 q2^T: the Gram lost the smallest
    # singular directions' last digits
    assert np.abs(point.matrix - q1 @ q2.T).max() <= 1e-6


def test_fit_iterates_stay_on_manifold(monkeypatch):
    # a rank-2 fit that cannot match its rank-3 truth: the gradient's large
    # normal part would grow any isometry defect a retraction left behind,
    # until the fit stopped at the step floor with the loss of a stack that
    # is not a channel; every trial point is an isometry to rounding
    truth = random_channel(8, 3, np.random.default_rng(0))
    ds = small_dataset(truth, n_probe=5, n_beta=11, b_max=2.0)
    cfg = rec.ReconstructionConfig(rank=2, dim=8)
    defects = []
    real_terms = rec._Objective.terms

    def recording(self, v):
        defects.append(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
        return real_terms(self, v)

    monkeypatch.setattr(rec._Objective, "terms", recording)
    ks, report = rec.reconstruct(ds, cfg)
    assert len(defects) > cfg.max_iters and max(defects) <= 1e-12
    # the last accepted iterate is returned as it is, not re-polarised, so
    # the report's loss is exactly that of the returned set
    assert rec.loss(ks, ds, cfg.gamma).total == report.total


def test_fit_linear_algebra_counts(monkeypatch):
    # a fit makes no SVD and no eigh whatever its length: its start and its
    # retractions are Newton-Schulz sweeps, GEMMs only, and the last iterate
    # is returned as it is
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
        assert counts.get("svd", 0) == 0
        assert counts.get("eigh", 0) == 0


def test_line_search_evaluations_per_step(monkeypatch):
    # the first trial of an iteration is the unit step along the L-BFGS
    # direction, which the Armijo test almost always accepts, so most
    # iterations cost one forward pass; doubling the step every iteration
    # made almost every one cost two (1.99 per step on this fit)
    rng = np.random.default_rng(19)
    truth = random_channel(6, 2, rng)
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=6, gamma=1e-4, max_iters=200, grad_tol=0.0, seed=7,
    )
    calls = []
    real = rec._Objective.terms

    def counting(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(rec._Objective, "terms", counting)
    counts = []
    for _ in range(2):
        calls.clear()
        _, rep = rec.reconstruct(ds, cfg)
        counts.append(len(calls))
    assert rep.iters_used == 200
    assert counts[0] == counts[1]  # deterministic, rerun for rerun
    # one evaluation at the start, then the trials of the accepted steps:
    # at least one each, so a count that misses the fit's evaluations fails
    assert counts[0] >= rep.iters_used + 1
    assert (counts[0] - 1) / rep.iters_used <= 1.5
    assert np.all(np.diff(rep.history) <= 0)


def test_lbfgs_convergence_pin():
    # quasi-Newton directions: within 80 iterations this exact-data fit gets
    # below 0.0050, the loss steepest descent with the carried Armijo step
    # had after 800 (0.00515); that fit reached 0.00375, this one's loss at
    # 80 iterations, only after 901, and stood at 0.302 after 80
    truth = random_channel(6, 2, np.random.default_rng(21))
    ds = small_dataset(truth, n_beta=5, b_max=1.5)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=6, gamma=1e-4, max_iters=80, grad_tol=0.0, seed=1,
    )
    _, rep = rec.reconstruct(ds, cfg)
    assert rep.iters_used == 80 and rep.stop_reason == "max_iters"
    assert rep.total <= 0.0050


def test_memoryless_first_step():
    # with no (s, y) pairs yet the step is step_size along the projected
    # gradient, the first trial of steepest descent
    truth = random_channel(6, 2, np.random.default_rng(22))
    ds = small_dataset(truth)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=6, gamma=1e-4, max_iters=1, grad_tol=0.0, seed=3,
    )
    _, rep = rec.reconstruct(ds, cfg)
    point = rec.initial_point(cfg)
    xi = rec._project(point.matrix, rec.euclidean_gradient(point, ds, cfg.gamma))
    moved = rec._retraction_along(point.matrix, xi)(cfg.step_size)
    expected = rec._Objective(ds, 6, cfg.gamma, "stack").terms(moved)[2]
    assert rep.history == (rec.loss(point, ds, cfg.gamma).total, expected)


def test_lbfgs_safeguards(monkeypatch):
    # a direction that is not a descent direction clears the memory, so the
    # next direction is built from the newest pair alone, and a pair whose
    # <s, y> fails the curvature test is not kept; the fit carries on
    # monotonically to its cap either way
    truth = random_channel(6, 2, np.random.default_rng(23))
    ds = small_dataset(truth, n_beta=5, b_max=1.5)
    cfg = rec.ReconstructionConfig(
        rank=2, dim=6, gamma=1e-4, max_iters=60, grad_tol=0.0, seed=2,
    )
    real_pair, real_two_loop = rec._lbfgs_pair, rec._two_loop
    memory, skipped = [], []

    def bad_pair(s, y):
        flip = len(skipped) % 4 == 1
        pair = real_pair(s, -y if flip else y)
        skipped.append(pair is None)
        assert (pair is None) == flip
        return pair

    def uphill(xi, pairs):
        memory.append(len(pairs))
        hd = real_two_loop(xi, pairs)
        return -hd if len(memory) % 5 == 0 else hd

    monkeypatch.setattr(rec, "_lbfgs_pair", bad_pair)
    monkeypatch.setattr(rec, "_two_loop", uphill)
    _, rep = rec.reconstruct(ds, cfg)
    assert rep.stop_reason == "max_iters" and rep.iters_used == 60
    assert np.all(np.diff(rep.history) <= 0)
    assert sum(skipped) >= 10
    # each rejected direction emptied the memory the next one starts from
    after = memory[5::5]
    assert len(after) >= 10 and max(after) <= 1


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
    assert iters["max_iters"] == 2  # the cap

    # a v1 file written before stop_reason existed still loads; converged
    # true stands for grad_tol, false for an unknown reason
    for old in (rep, replace(rep, stop_reason="grad_tol")):
        data = rec.result_to_json(ks, old, c)
        del data["loss"]["stop_reason"]
        assert rec.result_from_json(data)[1].stop_reason == (
            "grad_tol" if old.converged else None)
    with pytest.raises(ValidationError):
        replace(rep, stop_reason="tired")
    with pytest.raises(TypeError):  # converged follows from stop_reason
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
    # a missing field is malformed, named by its key
    with pytest.raises(ValidationError, match="malformed result JSON: 'schema'"):
        rec.result_from_json({})
    with pytest.raises(ValidationError, match="malformed result JSON: 'kraus'"):
        rec.result_from_json({"schema": rec.RESULT_SCHEMA})


def unfitted_result(dim=4):
    """(ks, report, cfg) of the identity channel with no fit behind it."""
    ks = KrausSet(np.eye(dim)[None])
    cfg = rec.ReconstructionConfig(rank=1, dim=dim)
    rep = rec.LossReport(l2=0.0, l1=dim, grad_norm=0.0, history=(cfg.gamma * dim,))
    return ks, rep, cfg


@pytest.mark.parametrize("path, value", [
    (("loss", "converged"), "false"),
    (("loss", "converged"), 0),
    (("loss", "iters_used"), 2.5),
    (("loss", "iters_used"), "30"),
    (("loss", "iters_used"), True),
    (("config", "rank"), True),
    (("config", "rank"), 2.5),
    (("config", "dim"), 4.5),
    (("config", "max_iters"), 40.5),
    (("config", "seed"), True),
    (("config", "gamma"), True),
    (("config", "gamma"), "4e-4"),
    (("loss", "l2"), "0.5"),
    (("loss", "l2"), float("nan")),
    (("history", 0), "1e3"),
    (("kraus", "dim"), 3.7),
    (("kraus", "dim"), "3"),
    (("kraus", "rank"), True),
    (("kraus", "operators", 0, 0, 0, 0), "1.0"),
], ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else str(x))
def test_result_json_counts_and_flags_are_strict(path, value):
    # one rule for every value: a count is a whole number, not a bool, a
    # string or a fraction; a real is a finite JSON number; converged is a
    # JSON boolean.  The dim-3 identity block would load as it is if a
    # loose cast turned 3.7, "3", true or "1.0" into a number.
    data = json.loads(json.dumps(rec.result_to_json(*unfitted_result(3))))
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    field = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(ValidationError, match=field):
        rec.result_from_json(data)


def test_result_json_whole_floats_load_as_integers():
    data = json.loads(json.dumps(rec.result_to_json(*unfitted_result())))
    data["loss"]["iters_used"] = 3.0
    # three iterations after the start, down to the recorded total
    data["history"] = [1.0, 0.5, 0.25, data["loss"]["total"]]
    data["config"].update(rank=1.0, dim=4.0, max_iters=40.0, seed=7.0)
    _, rep, cfg = rec.result_from_json(data)
    assert type(rep.iters_used) is int and rep.iters_used == 3
    fields = (cfg.rank, cfg.dim, cfg.max_iters, cfg.seed)
    assert [type(x) for x in fields] == [int] * 4 and fields == (1, 4, 40, 7)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["loss"].update(iters_used=99), "iters_used 99 .* history of 1"),
    (lambda d: d.update(history=[]), "history must hold at least one loss"),
    (lambda d: d.update(history=d["history"] * 2), "iters_used 0 .* history of 2"),
    (lambda d: d["config"].update(dim=32), "dim 32 .* dim 4"),
    (lambda d: d["config"].update(rank=2), "rank 2, .* rank 1"),
    (lambda d: d["loss"].update(total=0.5), "total 0.5 .* history of 1"),
    (lambda d: d["loss"].update(converged=True), "converged True .* stop_reason None"),
    (lambda d: d["loss"].update(stop_reason="grad_tol"),
     "converged False .* 'grad_tol'"),
], ids=["iters-over-one-loss", "empty-history", "two-losses", "config-dim",
        "config-rank", "total-not-last-loss", "converged-without-reason",
        "reason-not-converged"])
def test_result_json_parts_must_agree(edit, match):
    # a fit's file has one loss for its start and one per iteration, and a
    # Kraus block of the config's rank and dim; a file that does not is torn
    data = json.loads(json.dumps(rec.result_to_json(*unfitted_result())))
    rec.result_from_json(data)
    edit(data)
    with pytest.raises(ValidationError, match=match):
        rec.result_from_json(data)


def test_loss_report_derives_total_iters_and_converged():
    # five fields; the last loss, the step count and the converged flag
    # follow from them, so no report can contradict itself
    assert [f.name for f in fields(rec.LossReport)] == [
        "l2", "l1", "grad_norm", "history", "stop_reason"]
    rep = rec.LossReport(l2=1, l1=2, grad_norm=0, history=[3, 2.5, 2],
                         stop_reason="grad_tol")
    assert (rep.l2, rep.l1, rep.grad_norm) == (1.0, 2.0, 0.0)
    assert rep.history == (3.0, 2.5, 2.0) and type(rep.history[0]) is float
    assert (rep.total, rep.iters_used, rep.converged) == (2.0, 2, True)
    assert not replace(rep, stop_reason="max_iters").converged
    for name in ("total", "iters_used", "converged"):
        with pytest.raises(TypeError):
            replace(rep, **{name: getattr(rep, name)})
        with pytest.raises(AttributeError):
            setattr(rep, name, getattr(rep, name))


@pytest.mark.parametrize("field, value", [
    ("l2", float("nan")), ("l1", float("inf")), ("grad_norm", -float("inf")),
    ("l2", True), ("l1", "0.5"), ("grad_norm", None),
    ("history", ()), ("history", [[0.5, 0.25]]), ("history", (0.5, float("nan"))),
    ("history", (True,)), ("history", "0.5"), ("history", 0.5),
    ("stop_reason", "tired"), ("stop_reason", True),
    ("stop_reason", np.array("grad_tol")), ("stop_reason", np.array(["grad_tol"] * 2)),
])
def test_loss_report_reads_its_fields(field, value):
    good = dict(l2=0.0, l1=1.0, grad_norm=0.0, history=(0.5,), stop_reason=None)
    with pytest.raises(ValidationError, match=field):
        rec.LossReport(**{**good, field: value})


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(finite, finite, finite, st.lists(finite, min_size=1, max_size=12),
       st.sampled_from((None, *rec.STOP_REASONS)))
def test_every_loss_report_saves_and_loads_back(l2, l1, grad_norm, history, reason):
    rep = rec.LossReport(l2, l1, grad_norm, history, reason)
    ks, _, cfg = unfitted_result(2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.json")
        rec.save_result(ks, rep, cfg, path)
        with open(path, "rb") as fh:
            text = fh.read()
        _, back, _ = rec.load_result(path)
        assert back == rep
        rec.save_result(ks, back, cfg, path)
        with open(path, "rb") as fh:
            assert fh.read() == text


def refused_saves():
    """name -> a save that must raise ValidationError, given its path."""
    ks, rep, cfg = unfitted_result()
    nan_l2 = dict(l2=float("nan"), l1=4.0, grad_norm=0.0, history=(0.0016,))
    return {
        "dataset None": lambda p: tomo.save_dataset(None, p),
        "report None": lambda p: rec.save_result(ks, None, cfg, p),
        "cfg dict": lambda p: rec.save_result(ks, rep, {"rank": 1, "dim": 4}, p),
        "ks None": lambda p: rec.save_result(None, rep, cfg, p),
        # a config that no fit of this Kraus set has
        "config rank and dim": lambda p: rec.save_result(
            ks, rep, rec.ReconstructionConfig(rank=2, dim=8), p),
        "nan l2": lambda p: rec.save_result(ks, rec.LossReport(**nan_l2), cfg, p),
    }


REFUSED_SAVES = refused_saves()


@pytest.mark.parametrize("case", REFUSED_SAVES)
def test_refused_save_leaves_the_file_alone(tmp_path, case):
    # a save builds its JSON text before it opens the path: load would
    # refuse what save refuses, and a refused save truncates nothing
    path = tmp_path / "out.json"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(ValidationError):
        REFUSED_SAVES[case](str(path))
    assert path.read_bytes() == b"previous contents\n"


def special_floats(rng, shape):
    """Random normals with -0.0, subnormals and +-1e300 mixed in."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=6, replace=False)
    flat[picks] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.0]
    return x


def pairs_by_element(arr):
    return [[float(z.real), float(z.imag)] for z in arr]


def kraus_by_element(ks):
    return {
        "dim": ks.dim, "rank": ks.rank,
        "operators": [[pairs_by_element(row) for row in op] for op in ks.operators],
    }


@pytest.mark.parametrize("seed", range(3))
def test_json_writers_match_element_by_element_encoding(seed):
    # the ndarray.tolist and dataclasses.asdict writers give the JSON text
    # of a float()-per-element encoding, with the same keys in the same order
    rng = np.random.default_rng(seed)
    d, r, n_p, n_b = 3, 2, 6, 7

    def cplx(*shape):
        return special_floats(rng, shape) + 1j * special_floats(rng, shape)

    ds = tomo.TomographyDataset(probes=cplx(n_p), betas=cplx(n_b),
                                values=special_floats(rng, (n_p, n_b)),
                                dim=d, shots=10, seed=seed)
    expect = {
        "schema": tomo.DATASET_SCHEMA, "dim": d, "shots": 10, "seed": seed,
        "normalized": False, "probes": pairs_by_element(ds.probes),
        "betas": pairs_by_element(ds.betas),
        "values": [[float(v) for v in row] for row in ds.values],
    }
    assert json.dumps(tomo.dataset_to_json(ds)) == json.dumps(expect)

    with np.errstate(over="ignore"):  # the CPTP defect of 1e300 entries
        ks = KrausSet(cplx(r, d, d))
    assert json.dumps(kraus_to_json(ks)) == json.dumps(kraus_by_element(ks))

    t = special_floats(rng, 8).tolist()
    cfg = rec.ReconstructionConfig(rank=r, dim=d, gamma=5e-324, max_iters=7,
                                   step_size=1e300, grad_tol=-0.0, seed=seed)
    rep = rec.LossReport(l2=t[0], l1=t[1], grad_norm=t[3], history=tuple(t),
                         stop_reason="max_iters")
    expect = {
        "schema": rec.RESULT_SCHEMA,
        "config": {"rank": r, "dim": d, "gamma": 5e-324, "max_iters": 7,
                   "step_size": 1e300, "grad_tol": -0.0, "seed": seed,
                   "init": "identity-perturbed"},
        "kraus": kraus_by_element(ks),
        "loss": {"l2": rep.l2, "l1": rep.l1, "total": t[-1],
                 "grad_norm": rep.grad_norm, "iters_used": 7,
                 "converged": False, "stop_reason": "max_iters"},
        "history": list(rep.history),
    }
    assert json.dumps(rec.result_to_json(ks, rep, cfg)) == json.dumps(expect)
