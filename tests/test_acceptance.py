"""End-to-end acceptance tests for the full pipeline.

Ordered from headline gate metrics through reconstruction round trips to
representation invariants. The noiseless dataset and its reconstruction
are module-scoped fixtures: the truncation-sweep test runs on the same
reconstruction object as the noiseless round-trip test. That test sweeps
the input Fock cut against a reference that equals the ideal X through the
code block and deviates only above it, so a reconstruction that is right
everywhere shows the sweep's shape: flat through the code block, declining
beyond it, and tracking the true channel's own sweep at every cut.
"""

import time

import numpy as np
import pytest

from csqpt import basis, gates, metrics, tomography
from csqpt import reconstruct as rec
from csqpt.channel import (
    choi_to_kraus,
    cptp_defect,
    kraus_to_choi,
    random_channel,
    unitary_channel,
)
from csqpt.fock import fock_state
from csqpt.gates import BinomialCode, ideal_logical_x, ideal_logical_x_unitary

# Frozen reconstruction settings shared by the three acceptance fits.
# rank/dim/gamma are the contract values; init, seed and the iteration
# budget are the library defaults, so the suite certifies the pipeline
# exactly as it runs out of the box.
ACCEPT_INIT = "identity-perturbed"
ACCEPT_SEED = 0
ACCEPT_ITERS = 2000
SHOT_SEED = 0


def accept_config(max_iters=None):
    return rec.ReconstructionConfig(
        rank=4, dim=32, gamma=4e-4,
        max_iters=ACCEPT_ITERS if max_iters is None else max_iters,
        seed=ACCEPT_SEED, init=ACCEPT_INIT,
    )


@pytest.fixture(scope="module")
def code():
    return BinomialCode(32)


@pytest.fixture(scope="module")
def x_target(code):
    return ideal_logical_x(code)


@pytest.fixture(scope="module")
def ideal_x_channel(code):
    return unitary_channel(ideal_logical_x_unitary(code))


@pytest.fixture(scope="module")
def noiseless_ds(ideal_x_channel):
    return tomography.simulate_dataset(
        ideal_x_channel, tomography.probe_grid(), tomography.wigner_grid(), shots=0
    )


@pytest.fixture(scope="module")
def noiseless_reconstruction(noiseless_ds):
    t0 = time.monotonic()
    ks, report = rec.reconstruct(noiseless_ds, accept_config())
    return ks, report, time.monotonic() - t0


@pytest.fixture(scope="module")
def shot_noise_reconstruction(ideal_x_channel):
    ds = tomography.simulate_dataset(
        ideal_x_channel, tomography.probe_grid(), tomography.wigner_grid(),
        shots=1000, seed=SHOT_SEED,
    )
    ks, report = rec.reconstruct(ds, accept_config())
    return ks, report


@pytest.fixture(scope="module")
def coarse_reconstruction(noiseless_ds):
    coarse = tomography.subsample_grid(noiseless_ds, stride=2)
    assert coarse.betas.size == 121  # 11 x 11
    ks, report = rec.reconstruct(coarse, accept_config())
    return ks, report


def test_01_composed_gate_fidelity_band(code, x_target):
    t0 = time.monotonic()
    composed = unitary_channel(gates.compose_unitary(gates.x_gate_sequence(), 32))
    rep = metrics.avg_gate_fidelity(composed, x_target, code)
    elapsed = time.monotonic() - t0
    assert abs(rep.f_avg - 0.994) <= 0.005
    assert elapsed < 30.0


def test_02_gtm_structure(code, ideal_x_channel):
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    block = basis.transfer_matrix(ideal_x_channel, gm, rows=[0, 1, 2, 3])
    assert np.abs(block.elements - np.diag([1.0, 1.0, -1.0, -1.0])).max() <= 1e-6
    ident = unitary_channel(np.eye(32, dtype=complex))
    full = basis.transfer_matrix(ident, gm)
    assert np.abs(full.elements - np.eye(1024)).max() <= 1e-10


def test_03_noiseless_round_trip(noiseless_reconstruction, ideal_x_channel):
    ks, report, elapsed = noiseless_reconstruction
    f5 = metrics.process_fidelity_choi(ks, ideal_x_channel, subspace_cut=5)
    assert f5 >= 0.99
    assert elapsed < 600.0


def test_04_shot_noise_round_trip(
    shot_noise_reconstruction, ideal_x_channel, x_target, code
):
    ks, report = shot_noise_reconstruction
    f5 = metrics.process_fidelity_choi(ks, ideal_x_channel, subspace_cut=5)
    assert f5 >= 0.95
    truth_favg = metrics.avg_gate_fidelity(ideal_x_channel, x_target, code).f_avg
    recon_favg = metrics.avg_gate_fidelity(ks, x_target, code).f_avg
    assert abs(recon_favg - truth_favg) <= 0.015


def test_05_coarse_grid_robustness(coarse_reconstruction, ideal_x_channel):
    ks, report = coarse_reconstruction
    f5 = metrics.process_fidelity_choi(ks, ideal_x_channel, subspace_cut=5)
    assert f5 >= 0.98


def test_06_truncation_sweep(noiseless_reconstruction, ideal_x_channel, code):
    ks, report, _ = noiseless_reconstruction
    # The reference is the ideal X followed by a 0.5 rad phase on Fock levels
    # 6 and up: it matches the ideal X on inputs 0-5 and deviates only above
    # the code block.  The reconstruction is of the ideal X itself, so a
    # decline has to come from the reference, not from reconstruction error;
    # the paper claims the fit holds beyond the logical subspace, and the
    # tracking check below holds it to that.
    phase = np.ones(32, dtype=complex)
    phase[6:] = np.exp(0.5j)
    reference = unitary_channel(phase[:, None] * ideal_logical_x_unitary(code))
    cuts = range(2, 11)
    sweep = dict(metrics.truncation_sweep(ks, reference, cuts))
    truth_sweep = dict(metrics.truncation_sweep(ideal_x_channel, reference, cuts))
    # flat through the code block
    for cut in (3, 4, 5):
        assert abs(sweep[cut] - sweep[2]) <= 0.01
    # declining beyond it
    decline = max(sweep[2] - sweep[cut] for cut in range(6, 11))
    assert decline >= 0.05
    # and at every cut the sweep is the true channel's own
    for cut in cuts:
        assert abs(sweep[cut] - truth_sweep[cut]) <= 0.01


def test_07_avg_fidelity_identities():
    code8 = BinomialCode(8)
    target = ideal_logical_x(code8)
    rng = np.random.default_rng(2024)
    for i in range(100):
        rank = 1 + int(rng.integers(0, 4))
        ch = random_channel(8, rank, rng)
        rep = metrics.avg_gate_fidelity(ch, target, code8)
        assert abs(rep.f_avg - rep.f_avg_direct) <= 1e-12
        mc, se = metrics.mc_avg_gate_fidelity(ch, target, code8, samples=10000, seed=i)
        assert abs(mc - rep.f_avg) <= 3.0 * se


def test_08_cptp_and_gradient_correctness(
    noiseless_reconstruction, shot_noise_reconstruction, coarse_reconstruction
):
    for ks in (noiseless_reconstruction[0], shot_noise_reconstruction[0],
               coarse_reconstruction[0]):
        assert cptp_defect(ks.operators) <= 1e-6

    rng = np.random.default_rng(417)
    probes = tomography.probe_grid(3, 0.9)
    grid = tomography.wigner_grid(3, 1.1)
    gamma = 4e-4
    h = 1e-5
    for _ in range(3):
        truth = random_channel(6, 2, rng)
        ds = tomography.simulate_dataset(truth, probes, grid, shots=0)
        point = rec.retract(rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6)))
        g = rec.euclidean_gradient(point, ds, gamma)

        def total(m):
            return rec._Objective(ds, 6, gamma, "stack").terms(m)[2]

        v = point.matrix
        # keep every coordinate away from the |.| kink so the FD stencil is valid
        assert min(np.abs(v.real).min(), np.abs(v.imag).min()) > 10 * h
        fd = np.zeros_like(v)
        for a in range(v.shape[0]):
            for b in range(v.shape[1]):
                e = np.zeros_like(v)
                e[a, b] = h
                fd[a, b] = (total(v + e) - total(v - e)) / (2 * h) + 1j * (
                    total(v + 1j * e) - total(v - 1j * e)
                ) / (2 * h)
        # real-coordinate derivatives recover twice the Wirtinger gradient
        rel = np.linalg.norm(fd - 2.0 * g) / np.linalg.norm(fd)
        assert rel <= 1e-5


def test_09_analytic_wigner_suite():
    dim = 32
    vac = np.outer(fock_state(0, dim), fock_state(0, dim).conj())
    assert abs(tomography.wigner_value(vac, 0.0) - 2 / np.pi) <= 1e-10
    one = np.outer(fock_state(1, dim), fock_state(1, dim).conj())
    assert abs(tomography.wigner_value(one, 0.0) + 2 / np.pi) <= 1e-10

    probes = tomography.probe_grid(5, 1.5)
    grid = tomography.wigner_grid(9, 1.5)
    ident = unitary_channel(np.eye(dim, dtype=complex))
    ds = tomography.simulate_dataset(ident, probes, grid, shots=0)
    gauss = (2 / np.pi) * np.exp(
        -2 * np.abs(ds.betas[None, :] - ds.probes[:, None]) ** 2
    )
    mask = (np.abs(ds.probes)[:, None] <= 1.5 + 1e-9) & (
        np.abs(ds.betas)[None, :] <= 1.5 + 1e-9
    )
    assert np.abs(ds.values - gauss)[mask].max() <= 1e-4


def test_10_decoder_limitation(code):
    p = 0.06
    theta = np.arcsin(np.sqrt(p))
    f1 = np.zeros(32)
    f1[1] = 1.0
    u = np.eye(32, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    for a, b in ((code.zero_l, code.error_vec), (code.one_l, f1)):
        pa, pb = np.outer(a, a.conj()), np.outer(b, b.conj())
        u += (c - 1) * (pa + pb) + s * (np.outer(b, a.conj()) - np.outer(a, b.conj()))
    leaky = unitary_channel(u)
    injected = metrics.avg_gate_fidelity(leaky, ideal_logical_x(code), code).leakage
    assert injected >= 0.05

    decoded, direct = metrics.decoder_study(leaky, code)
    assert np.abs(decoded.elements[0] - np.array([1.0, 0, 0, 0])).max() <= 1e-10
    deficit = 1.0 - direct.elements[0, 0]
    assert abs(deficit - injected) <= 1e-6


def test_11_channel_representation_round_trips():
    rng = np.random.default_rng(77)
    for i in range(100):
        rank = 1 + int(rng.integers(0, 8))
        ch = random_channel(8, rank, rng)
        choi = kraus_to_choi(ch)
        back = kraus_to_choi(choi_to_kraus(choi))
        assert np.linalg.norm(choi - back) <= 1e-9
