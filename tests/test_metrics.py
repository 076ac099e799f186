"""Tests for fidelity, leakage, sweep, budget, and decoder analyses."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from csqpt import basis, channel, gates, metrics, tomography
from csqpt.channel import (
    DecoherenceParams,
    KrausSet,
    kraus_to_choi,
    random_channel,
    unitary_channel,
)
from csqpt.errors import (
    DimensionMismatchError,
    NumericalConsistencyError,
    ValidationError,
)
from csqpt.gates import BinomialCode, ideal_logical_x, ideal_logical_x_unitary


def leak_unitary(code, theta):
    """Rotate 0_L toward the error vec and 1_L toward |1> by angle theta."""
    dim = code.dim
    f1 = np.zeros(dim)
    f1[1] = 1.0
    u = np.eye(dim, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    for a, b in ((code.zero_l, code.error_vec), (code.one_l, f1)):
        pa, pb = np.outer(a, a.conj()), np.outer(b, b.conj())
        u += (c - 1) * (pa + pb)
        u += s * (np.outer(b, a.conj()) - np.outer(a, b.conj()))
    return u


@pytest.fixture(scope="module")
def code():
    return BinomialCode(32)


@pytest.fixture(scope="module")
def x_target(code):
    return ideal_logical_x(code)


@pytest.fixture(scope="module")
def ideal_x_channel(code):
    return unitary_channel(ideal_logical_x_unitary(code))


def test_ideal_x_is_perfect(code, x_target, ideal_x_channel):
    rep = metrics.avg_gate_fidelity(ideal_x_channel, x_target, code)
    assert abs(rep.f_avg - 1) < 1e-12
    assert abs(rep.f_pro - 1) < 1e-12
    assert rep.leakage < 1e-12
    assert rep.dim_logical == 2


def test_identity_channel_scores_one_third(code, x_target):
    ident = KrausSet(np.eye(32)[None])
    rep = metrics.avg_gate_fidelity(ident, x_target, code)
    assert rep.f_pro < 1e-24
    assert abs(rep.f_avg - 1 / 3) < 1e-12
    assert rep.leakage < 1e-12


def test_composed_gate_fidelity_band(code, x_target):
    ch = unitary_channel(gates.compose_unitary(gates.x_gate_sequence(), 32))
    rep = metrics.avg_gate_fidelity(ch, x_target, code)
    assert abs(rep.f_avg - 0.994) < 0.005
    assert abs(rep.f_avg - (2 * rep.f_pro + 1 - rep.leakage) / 3) < 1e-12
    assert abs(rep.f_avg - rep.f_avg_direct) < 1e-12


def test_fidelity_forms_agree_on_random_channels():
    code8 = BinomialCode(8)
    target = ideal_logical_x(code8)
    rng = np.random.default_rng(42)
    for k in range(20):
        ch = random_channel(8, int(rng.integers(1, 5)), rng)
        rep = metrics.avg_gate_fidelity(ch, target, code8)
        assert abs(rep.f_avg - rep.f_avg_direct) < 1e-12
        assert 0 <= rep.f_pro <= 1 and 0 <= rep.leakage <= 1
        assert 0 <= rep.f_avg <= 1


def test_complex_logical_target():
    # a complex target (the bundled X is real) checks the image form of F_pro
    # against the Kraus trace form sum_i |Tr[U^dag K_i]|^2 / 4
    code8 = BinomialCode(8)
    rng = np.random.default_rng(11)
    w, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    c = np.stack([code8.zero_l, code8.one_l], axis=1)
    target = c @ w @ c.conj().T
    full = unitary_channel(target + np.eye(8) - code8.projector())
    assert abs(metrics.avg_gate_fidelity(full, target, code8).f_avg - 1) < 1e-12
    for rank in (1, 3):
        ch = random_channel(8, rank, rng)
        traces = np.einsum("ab,kab->k", target.conj(), ch.operators)
        want = (np.abs(traces) ** 2).sum() / 4
        assert abs(metrics.avg_gate_fidelity(ch, target, code8).f_pro - want) < 1e-12


def test_monte_carlo_matches_closed_form():
    code8 = BinomialCode(8)
    target = ideal_logical_x(code8)
    rng = np.random.default_rng(1)
    for k in range(5):
        ch = random_channel(8, 3, rng)
        rep = metrics.avg_gate_fidelity(ch, target, code8)
        mean, se = metrics.mc_avg_gate_fidelity(ch, target, code8, 10000, seed=k)
        assert abs(mean - rep.f_avg) <= 3 * se
    # reproducible
    again = metrics.mc_avg_gate_fidelity(ch, target, code8, 10000, seed=4)
    assert again == (mean, se)


def test_leakage_oracles(code, x_target):
    # swap 0_L fully into the error state, fix 1_L: leakage averages to 1/2
    half = unitary_channel(_zero_to_error_unitary(code))
    assert abs(metrics.avg_gate_fidelity(half, x_target, code).leakage - 0.5) < 1e-12


def _zero_to_error_unitary(code):
    z, e = code.zero_l, code.error_vec
    u = np.eye(code.dim, dtype=complex)
    u -= np.outer(z, z.conj()) + np.outer(e, e.conj())
    u += np.outer(e, z.conj()) + np.outer(z, e.conj())
    return u


def test_choi_fidelity_basics():
    ident = KrausSet(np.eye(2)[None])
    paulis = np.stack([
        np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]],
    ]) / 2
    dep = KrausSet(paulis)
    assert abs(metrics.process_fidelity_choi(ident, ident) - 1) < 1e-12
    f = metrics.process_fidelity_choi(ident, dep)
    assert abs(f - 0.25) < 1e-10
    assert abs(f - metrics.process_fidelity_choi(dep, ident)) < 1e-10
    with pytest.raises(ValidationError):
        metrics.process_fidelity_choi(ident, dep, subspace_cut=2)
    with pytest.raises(DimensionMismatchError):
        metrics.process_fidelity_choi(ident, KrausSet(np.eye(3)[None]))


def _dense_choi_fidelity(a, b, cut):
    """The d^2 x d^2 formula: project both Choi matrices onto inputs
    0..cut, normalize, and take (Tr sqrt(sqrt(Ca) Cb sqrt(Ca)))^2."""
    d = a.dim
    keep = np.zeros(d)
    keep[: (d - 1 if cut is None else cut) + 1] = 1
    proj = np.kron(np.diag(keep), np.eye(d))  # input factor comes first
    ca = proj @ kraus_to_choi(a) @ proj
    cb = proj @ kraus_to_choi(b) @ proj
    ca /= np.trace(ca).real
    cb /= np.trace(cb).real
    w, v = np.linalg.eigh(ca)
    sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(sq @ cb @ sq)
    # eigen-noise of the PSD product: sqrt turns O(eps^2) junk into O(eps)
    inner[inner < 1e-14 * inner[-1]] = 0.0
    return np.sqrt(inner).sum() ** 2


def test_choi_fidelity_matches_dense_reference():
    # the low-rank form against the dense Choi formula it replaces
    rng = np.random.default_rng(2718)
    for _ in range(12):
        d = int(rng.integers(4, 9))
        a = random_channel(d, int(rng.integers(1, 5)), rng)
        b = random_channel(d, int(rng.integers(1, 5)), rng)
        for cut in (None, 0, d // 2, d - 1):
            got = metrics.process_fidelity_choi(a, b, subspace_cut=cut)
            assert abs(got - _dense_choi_fidelity(a, b, cut)) <= 1e-12
            assert abs(got - metrics.process_fidelity_choi(b, a, cut)) <= 1e-12


def test_choi_fidelity_against_scipy_sqrtm():
    # independent matrix-square-root path for the subspace-projected form
    rng = np.random.default_rng(6)
    a, b = random_channel(6, 2, rng), random_channel(6, 3, rng)
    cut = 3
    got = metrics.process_fidelity_choi(a, b, subspace_cut=cut)
    keep = np.zeros(6)
    keep[: cut + 1] = 1
    proj = np.kron(np.diag(keep), np.eye(6))
    ca = proj @ kraus_to_choi(a) @ proj
    cb = proj @ kraus_to_choi(b) @ proj
    ca /= np.trace(ca).real
    cb /= np.trace(cb).real
    sq = sqrtm(ca)
    want = np.abs(np.trace(sqrtm(sq @ cb @ sq))) ** 2
    # sqrtm itself is only ~1e-8 accurate on these rank-deficient matrices
    assert abs(got - want) < 1e-7


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3),
       st.one_of(st.none(), st.integers(0, 5)), st.integers(0, 2**32 - 1))
def test_choi_fidelity_bounds_and_symmetry(dim, rank_a, rank_b, cut, seed):
    rng = np.random.default_rng(seed)
    a, b = random_channel(dim, rank_a, rng), random_channel(dim, rank_b, rng)
    cut = None if cut is None else min(cut, dim - 1)
    f_ab, f_ba, f_aa = (
        metrics.process_fidelity_choi(x, y, subspace_cut=cut)
        for x, y in ((a, b), (b, a), (a, a))
    )
    assert 0.0 <= f_ab <= 1.0
    assert abs(f_ba - f_ab) <= 1e-12
    assert abs(f_aa - 1.0) <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(5, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_avg_gate_fidelity_bounds(dim, rank, seed):
    # a random channel against a random logical unitary on the code space
    rng = np.random.default_rng(seed)
    code = BinomialCode(dim)
    words = np.stack([code.zero_l, code.one_l], axis=1)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w, _ = np.linalg.qr(z)
    rep = metrics.avg_gate_fidelity(
        random_channel(dim, rank, rng), words @ w @ words.conj().T, code
    )
    for value in (rep.f_avg, rep.f_pro, rep.leakage):
        assert 0.0 <= value <= 1.0


def test_truncation_sweep_self_and_order(code, ideal_x_channel):
    pairs = metrics.truncation_sweep(ideal_x_channel, ideal_x_channel, [2, 4, 6])
    assert [c for c, _ in pairs] == [2, 4, 6]
    assert all(abs(f - 1) < 1e-9 for _, f in pairs)
    with pytest.raises(ValidationError):
        metrics.truncation_sweep(ideal_x_channel, ideal_x_channel, [4, 2])


def test_error_budget_decoherence_free(code):
    seq = gates.x_gate_sequence()
    budget = metrics.error_budget(seq, DecoherenceParams(np.inf, np.inf), code)
    assert abs(budget.baseline - (1 - 0.994)) < 0.005
    for label, val in budget.contributions:
        assert abs(val) < 1e-9
    assert {label for label, _ in budget.contributions} == {
        "photon-loss", "pure-dephasing",
    }


def test_error_budget_needs_decay_times(code):
    for params in (None, (315.0, 478.0)):
        with pytest.raises(ValidationError, match="DecoherenceParams"):
            metrics.error_budget(gates.x_gate_sequence(), params, code)


def test_error_budget_measured_cavity_times(code, x_target):
    seq = gates.x_gate_sequence()
    params = DecoherenceParams(315.0, 478.0)
    budget = metrics.error_budget(seq, params, code)
    vals = dict(budget.contributions)
    assert vals["photon-loss"] >= 0 and vals["pure-dephasing"] >= 0
    # photon loss is the dominant cavity mechanism for this gate
    assert vals["photon-loss"] > vals["pure-dephasing"]
    # near-additivity at weak decoherence
    ch_all = gates.SequenceChannel(seq, params, 32)
    delta_all = (
        1 - metrics.avg_gate_fidelity(ch_all, x_target, code).f_avg
        - budget.baseline
    )
    total = sum(vals.values())
    assert abs(total - delta_all) <= 0.2 * delta_all


def test_sequence_channel_matches_kraus_form():
    # the action path against the Kraus set extracted from the Choi matrix
    seq = gates.x_gate_sequence()
    params = DecoherenceParams(315.0, 478.0)
    code16 = BinomialCode(16)
    action = gates.SequenceChannel(seq, params, 16)
    kraus = gates.noisy_gate_process(seq, params, 16)
    target = ideal_logical_x(code16)
    ob = basis.logical_ordered_basis(code16)
    pg, wg = tomography.probe_grid(3, 1.0), tomography.wigner_grid(5, 2.0)

    def results(ch):
        rep = metrics.avg_gate_fidelity(ch, target, code16)
        decoded, direct = metrics.decoder_study(ch, code16)
        return [
            [rep.f_pro, rep.leakage, rep.f_avg, rep.f_avg_direct],
            basis.logical_ptm(ch, code16).elements,
            basis.population_transfer_matrix(ch, ob).elements,
            decoded.elements, direct.elements,
            tomography.simulate_dataset(ch, pg, wg).values,
        ]

    for got, want in zip(results(action), results(kraus)):
        assert np.abs(np.asarray(got) - np.asarray(want)).max() <= 1e-10


def test_budget_and_decoder_need_no_kraus_operators(code, monkeypatch):
    # the action path never extracts Kraus operators or diagonalizes, and
    # propagates the four code units or probe projectors, never the d^2
    # matrix units
    def forbidden(*args, **kwargs):
        raise AssertionError("Kraus extraction reached")

    stack_sizes = []
    decay = gates.decay

    def recording_decay(params, duration, x):
        stack_sizes.append(x.size // (x.shape[-1] * x.shape[-2]))
        return decay(params, duration, x)

    monkeypatch.setattr(gates, "choi_to_kraus", forbidden)
    monkeypatch.setattr(channel, "choi_to_kraus", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(gates, "decay", recording_decay)
    seq = gates.x_gate_sequence()
    params = DecoherenceParams(315.0, 478.0)
    budget = metrics.error_budget(seq, params, code)
    assert dict(budget.contributions)["photon-loss"] > 0
    noisy = gates.SequenceChannel(seq, params, 32)
    decoded, direct = metrics.decoder_study(noisy, code)
    assert 0 < direct.elements[0, 0] < 1
    # simulate maps only the 2 x 2 probe projectors
    ds = tomography.simulate_dataset(
        noisy, tomography.probe_grid(2, 0.5), tomography.wigner_grid(3, 1.0))
    assert np.abs(ds.values).max() <= 2 / np.pi
    assert stack_sizes and max(stack_sizes) == 4
    with pytest.raises(AssertionError):
        gates.noisy_gate_process(seq, params, 16)


def test_decoder_study_ideal(code, ideal_x_channel):
    decoded, direct = metrics.decoder_study(ideal_x_channel, code)
    want = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.abs(decoded.elements - want).max() < 1e-10
    assert np.abs(direct.elements - want).max() < 1e-10
    assert decoded.labels == ("I", "X", "Y", "Z")


def test_decoder_study_applies_the_gate_once(code, monkeypatch):
    # the direct PTM comes from the code units' images that the decoder
    # already has, by linearity, not from a second run of the noisy gate
    noisy = gates.SequenceChannel(
        gates.x_gate_sequence(), DecoherenceParams(315.0, 478.0), code.dim)
    calls = []
    apply = gates.SequenceChannel.apply

    def counting(self, x):
        calls.append(np.shape(x))
        return apply(self, x)

    monkeypatch.setattr(gates.SequenceChannel, "apply", counting)
    _, direct = metrics.decoder_study(noisy, code)
    assert calls == [(2, 2, code.dim, code.dim)]
    want = basis.logical_ptm(noisy, code).elements
    assert np.abs(direct.elements - want).max() <= 1e-12


def test_decoder_study_full_leakage(code):
    full = unitary_channel(leak_unitary(code, np.pi / 2))
    decoded, direct = metrics.decoder_study(full, code)
    # the decoder never touches the ancilla, so its PTM is the identity
    assert np.abs(decoded.elements - np.eye(4)).max() < 1e-10
    assert abs(direct.elements[0, 0]) < 1e-10


def test_decoder_hides_partial_leakage(code, x_target):
    p = 0.08
    ch = unitary_channel(leak_unitary(code, np.arcsin(np.sqrt(p))))
    assert abs(metrics.avg_gate_fidelity(ch, x_target, code).leakage - p) < 1e-12
    decoded, direct = metrics.decoder_study(ch, code)
    assert np.abs(decoded.elements[0] - [1, 0, 0, 0]).max() < 1e-10
    assert abs((1 - direct.elements[0, 0]) - p) < 1e-6


def test_json_exports(code, x_target, ideal_x_channel):
    rep = metrics.avg_gate_fidelity(ideal_x_channel, x_target, code)
    data = asdict(rep)  # what analyze writes to fidelity.json
    assert set(data) == {"f_pro", "leakage", "f_avg", "f_avg_direct", "dim_logical"}


def test_full_space_target_rejected(code, ideal_x_channel):
    # the image form of F_pro holds only for targets confined to the code
    with pytest.raises(ValidationError):
        metrics.avg_gate_fidelity(ideal_x_channel, ideal_logical_x_unitary(code), code)


def test_dim_mismatch_errors(code):
    small = KrausSet(np.eye(8)[None])
    with pytest.raises(DimensionMismatchError):
        metrics.avg_gate_fidelity(small, ideal_logical_x(code), code)
    with pytest.raises(DimensionMismatchError):
        metrics.decoder_study(small, code)
