import numpy as np
import pytest

from csqpt import channel, fock
from csqpt.errors import (
    DimensionMismatchError,
    NotAChannelError,
    ValidationError,
)

np_rng = np.random.default_rng(7042)


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_unitary_channel_apply():
    u = fock.displacement(0.7 - 0.2j, 12)
    ch = channel.unitary_channel(u)
    assert ch.certified and ch.rank == 1
    rho = random_density(12, np_rng)
    assert np.abs(channel.apply(ch, rho) - u @ rho @ u.conj().T).max() < 1e-12


def test_unitary_channel_rejects_nonunitary():
    with pytest.raises(NotAChannelError):
        channel.unitary_channel(np.diag([1.0, 0.5]).astype(complex))


def test_apply_matches_explicit_kraus_sum():
    # a non-Hermitian X catches a transposed or conjugated operand that a
    # density matrix would hide
    d = 5
    x = np_rng.standard_normal((d, d)) + 1j * np_rng.standard_normal((d, d))
    for rank in (1, d + 2):
        ops = (np_rng.standard_normal((rank, d, d))
               + 1j * np_rng.standard_normal((rank, d, d)))
        want = sum(k @ x @ k.conj().T for k in ops)
        got = channel.apply(channel.KrausSet(ops), x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_dim_mismatch():
    ch = channel.unitary_channel(np.eye(4, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        channel.apply(ch, np.eye(5, dtype=complex))


def test_random_channel_certified():
    for rank in (1, 3, 5):
        ch = channel.random_channel(6, rank, np_rng)
        assert ch.certified
        assert channel.cptp_defect(ch.operators) < 1e-12
        rho = random_density(6, np_rng)
        out = channel.apply(ch, rho)
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_choi_invariants():
    d = 7
    ch = channel.random_channel(d, 3, np_rng)
    choi = channel.kraus_to_choi(ch)
    assert abs(np.trace(choi) - d) < 1e-10
    assert np.abs(choi - choi.conj().T).max() < 1e-12
    vals = np.linalg.eigvalsh(choi)
    assert vals.min() > -1e-10
    # partial trace over the output (second) factor = identity
    pt = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
    assert np.abs(pt - np.eye(d)).max() < 1e-10


def test_super_matches_kraus_action():
    d = 6
    ch = channel.random_channel(d, 4, np_rng)
    s = channel.kraus_to_super(ch)
    rho = random_density(d, np_rng)
    direct = channel.apply(ch, rho)
    via_vec = (s @ rho.flatten(order="F")).reshape(d, d, order="F")
    assert np.abs(direct - via_vec).max() < 1e-12


def test_choi_super_reshuffle_roundtrip():
    d = 5
    ch = channel.random_channel(d, 2, np_rng)
    s = channel.kraus_to_super(ch)
    choi = channel.kraus_to_choi(ch)
    assert np.abs(channel.super_to_choi(s) - choi).max() < 1e-12
    # the reshuffle is an involution
    assert np.abs(channel.super_to_choi(choi) - s).max() < 1e-12


def test_choi_identity_channel():
    d = 4
    ch = channel.unitary_channel(np.eye(d, dtype=complex))
    ident_vec = np.eye(d, dtype=complex).flatten(order="F")
    assert np.abs(channel.kraus_to_choi(ch) - np.outer(ident_vec, ident_vec.conj())).max() < 1e-14


def test_kraus_choi_kraus_roundtrip():
    d = 8
    for rank in (1, 2, 4):
        ch = channel.random_channel(d, rank, np_rng)
        back = channel.choi_to_kraus(channel.kraus_to_choi(ch))
        assert back.rank == rank
        # compare as channels (Kraus sets are only defined up to unitary mixing)
        dist = np.linalg.norm(channel.kraus_to_super(back) - channel.kraus_to_super(ch))
        assert dist < 1e-9


def test_choi_to_kraus_rejects_negative():
    bad = -np.eye(4, dtype=complex)
    with pytest.raises(NotAChannelError):
        channel.choi_to_kraus(bad)
    with pytest.raises(NotAChannelError):
        channel.choi_to_kraus(np.triu(np.ones((4, 4), dtype=complex)))


def test_decoherence_params_validation():
    channel.DecoherenceParams(t1=315.0, t2=478.0)
    channel.DecoherenceParams(t1=np.inf, t2=np.inf)
    with pytest.raises(ValidationError):
        channel.DecoherenceParams(t1=100.0, t2=250.0)  # t2 > 2 t1
    with pytest.raises(ValidationError):
        channel.DecoherenceParams(t1=-1.0, t2=1.0)


def test_dephasing_rate_value():
    p = channel.DecoherenceParams(t1=315.0, t2=478.0)
    assert abs(p.dephasing_rate - (1 / 478 - 1 / 630)) < 1e-15
    assert channel.DecoherenceParams(t1=100.0, t2=200.0).dephasing_rate == 0.0


def test_decay_photon_loss_population():
    # single-photon population decays exactly as exp(-t/T1)
    params = channel.DecoherenceParams(t1=315.0, t2=630.0)
    t = 2.5
    ch = channel.cavity_decay_channel(params, t, 8)
    assert ch.certified
    rho = np.outer(fock.fock_state(1, 8), fock.fock_state(1, 8).conj())
    out = channel.apply(ch, rho)
    assert abs(out[1, 1].real - np.exp(-t / 315.0)) < 1e-12
    assert abs(out[0, 0].real - (1 - np.exp(-t / 315.0))) < 1e-12


def test_decay_coherence_rate():
    # 0-1 coherence decays as exp(-t/T2) under loss plus dephasing
    params = channel.DecoherenceParams(t1=315.0, t2=478.0)
    t = 1.7
    ch = channel.cavity_decay_channel(params, t, 8)
    plus = (fock.fock_state(0, 8) + fock.fock_state(1, 8)) / np.sqrt(2)
    out = channel.apply(ch, np.outer(plus, plus.conj()))
    assert abs(out[0, 1] - 0.5 * np.exp(-t / 478.0)) < 1e-12


def test_decay_coherent_state_stays_coherent():
    # pure loss maps |alpha> to |alpha exp(-t/2T1)> exactly
    params = channel.DecoherenceParams(t1=100.0, t2=200.0)
    t = 30.0
    dim = 30
    alpha = 1.2 - 0.4j
    ch = channel.cavity_decay_channel(params, t, dim)
    out = channel.apply(ch, np.outer(fock.coherent_state(alpha, dim),
                                     fock.coherent_state(alpha, dim).conj()))
    target = fock.coherent_state(alpha * np.exp(-t / 200.0), dim)
    assert abs(target.conj() @ out @ target - 1) < 1e-8


def test_decay_infinite_times_is_identity():
    params = channel.DecoherenceParams(t1=np.inf, t2=np.inf)
    s = channel.decay_superoperator(params, 0.7, 6)
    assert np.abs(s - np.eye(36)).max() == 0


def test_decay_cache_reuse():
    params = channel.DecoherenceParams(t1=50.0, t2=80.0)
    s1 = channel.decay_superoperator(params, 0.1, 6)
    s2 = channel.decay_superoperator(params, 0.1, 6)
    assert s1 is s2
    with pytest.raises(ValueError):
        s1[0, 0] = 0.0
    for n in range(channel.CACHE_ENTRIES + 2):
        channel.decay_superoperator(params, 0.2 + n, 6)
        assert len(channel._DECAY_CACHE) <= channel.CACHE_ENTRIES
    assert len(channel._DECAY_CACHE) == channel.CACHE_ENTRIES
    # an evicted entry is rebuilt with the same values
    assert np.array_equal(channel.decay_superoperator(params, 0.1, 6), s1)
