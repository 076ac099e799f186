import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csqpt import channel, fock, gates, reconstruct
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


def test_kraus_set_certification_cannot_go_stale():
    # certified describes the operators the set holds: they are its own
    # read-only copy, and neither they nor the flag can be replaced
    source = np.eye(4, dtype=complex)[None].copy()
    ks = channel.KrausSet(source)
    with pytest.raises(ValueError):
        ks.operators[0] *= 3
    for name, value in (("operators", 3 * source), ("certified", True)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ks, name, value)
    source[0] *= 3
    assert ks.certified and channel.cptp_defect(ks.operators) == 0.0
    assert channel.require_certified(ks) is ks
    # wrapping a unitary copies it too
    u = np.eye(4, dtype=complex)
    wrapped = channel.unitary_channel(u)
    u *= 3
    assert channel.cptp_defect(wrapped.operators) == 0.0


def test_unitary_channel_rejects_nonunitary():
    with pytest.raises(NotAChannelError):
        channel.unitary_channel(np.diag([1.0, 0.5]).astype(complex))
    # a defect that CPTP_TOL would certify is still no unitary
    with pytest.raises(NotAChannelError, match="not an isometry"):
        channel.unitary_channel((1 + 1e-8) * np.eye(4, dtype=complex))


def test_a_nan_defect_is_no_isometry():
    # finite operators whose sum K^dag K overflows to inf - inf = nan
    big = [[[1e200, 1e200], [1e200, -1e200]]]
    ks = channel.KrausSet(big)
    assert np.isnan(ks.defect) and not ks.certified
    with pytest.raises(ValidationError, match="not an isometry"):
        reconstruct.stack_kraus(big)
    with pytest.raises(NotAChannelError, match="not an isometry"):
        channel.unitary_channel(big[0])


def test_apply_matches_explicit_kraus_sum():
    # a non-Hermitian X catches a transposed or conjugated operand that a
    # density matrix would hide
    d = 5
    x = np_rng.standard_normal((d, d)) + 1j * np_rng.standard_normal((d, d))
    stack = (np_rng.standard_normal((3, 2, d, d))
             + 1j * np_rng.standard_normal((3, 2, d, d)))
    for rank in (1, d + 2):
        ops = (np_rng.standard_normal((rank, d, d))
               + 1j * np_rng.standard_normal((rank, d, d)))
        ks = channel.KrausSet(ops)
        want = sum(k @ x @ k.conj().T for k in ops)
        got = channel.apply(ks, x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # a stack is mapped element by element, through the method too
        got_stack = ks.apply(stack)
        assert got_stack.shape == stack.shape
        for idx in np.ndindex(3, 2):
            want = sum(k @ stack[idx] @ k.conj().T for k in ops)
            assert np.abs(got_stack[idx] - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_dim_mismatch():
    ch = channel.unitary_channel(np.eye(4, dtype=complex))
    seq = gates.x_gate_sequence()
    params = channel.DecoherenceParams(t1=315.0, t2=478.0)
    for apply in (lambda x: channel.apply(ch, x), ch.apply,
                  gates.SequenceChannel(seq, params, 4).apply,
                  gates.SequenceChannel(seq, None, 4).apply):
        for bad in (np.eye(5), np.ones((2, 4, 5)), np.ones((3, 5, 4)), np.ones(4)):
            with pytest.raises(DimensionMismatchError):
                apply(bad.astype(complex))


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

    def reshuffle(m):
        return m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)

    assert np.abs(reshuffle(s) - choi).max() < 1e-12
    # the reshuffle is an involution
    assert np.abs(reshuffle(choi) - s).max() < 1e-12


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


def test_kraus_json_round_trip_keeps_signed_zeros():
    # i I written with -0.0 real parts: re + 1j * im would load +0.0
    ks = channel.KrausSet(np.diag(np.full(3, complex(-0.0, 1.0)))[None])
    text = json.dumps(channel.kraus_to_json(ks))
    assert "[-0.0, 1.0]" in text
    back = channel.kraus_from_json(json.loads(text))
    assert back.certified
    assert json.dumps(channel.kraus_to_json(back)) == text


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_kraus_choi_round_trips_random_sizes(dim, rank, seed):
    rng = np.random.default_rng(seed)
    ch = channel.random_channel(dim, rank, rng)
    choi = channel.kraus_to_choi(ch)
    back = channel.choi_to_kraus(choi)
    # Kraus -> Choi -> Kraus keeps the rank and the channel (its action) ...
    assert back.rank == rank and back.certified
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.abs(back.apply(z) - ch.apply(z)).max() <= 1e-10
    # ... and Choi -> Kraus -> Choi returns the Choi matrix
    assert np.abs(channel.kraus_to_choi(back) - choi).max() <= 1e-10


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
    rho = np.outer(fock.fock_state(1, 8), fock.fock_state(1, 8).conj())
    out = channel.decay(params, t, rho)
    assert abs(out[1, 1].real - np.exp(-t / 315.0)) < 1e-12
    assert abs(out[0, 0].real - (1 - np.exp(-t / 315.0))) < 1e-12


def test_decay_coherence_rate():
    # 0-1 coherence decays as exp(-t/T2) under loss plus dephasing
    params = channel.DecoherenceParams(t1=315.0, t2=478.0)
    t = 1.7
    plus = (fock.fock_state(0, 8) + fock.fock_state(1, 8)) / np.sqrt(2)
    out = channel.decay(params, t, np.outer(plus, plus.conj()))
    assert abs(out[0, 1] - 0.5 * np.exp(-t / 478.0)) < 1e-12


def test_decay_coherent_state_stays_coherent():
    # pure loss maps |alpha> to |alpha exp(-t/2T1)> exactly
    params = channel.DecoherenceParams(t1=100.0, t2=200.0)
    t = 30.0
    dim = 30
    alpha = 1.2 - 0.4j
    out = channel.decay(params, t, np.outer(fock.coherent_state(alpha, dim),
                                            fock.coherent_state(alpha, dim).conj()))
    target = fock.coherent_state(alpha * np.exp(-t / 200.0), dim)
    assert abs(target.conj() @ out @ target - 1) < 1e-8


def test_decay_infinite_times_is_identity():
    params = channel.DecoherenceParams(t1=np.inf, t2=np.inf)
    s = channel.decay_superoperator(params, 0.7, 6)
    assert np.abs(s - np.eye(36)).max() == 0


def test_decay_rejects_negative_duration():
    params = channel.DecoherenceParams(t1=50.0, t2=80.0)
    with pytest.raises(ValidationError):
        channel.decay(params, -0.1, np.eye(3, dtype=complex))


def test_decay_matches_lindblad_expm(lindblad_expm):
    for t1, t2 in ((np.inf, np.inf), (np.inf, 40.0), (60.0, 120.0), (35.0, 22.0)):
        params = channel.DecoherenceParams(t1=t1, t2=t2)
        for dim in range(2, 13):
            for t in (0.0, 0.1, 2.5, 30.0):
                want = lindblad_expm(params, t, dim)
                got = channel.decay_superoperator(params, t, dim)
                assert np.abs(got - want).max() <= 1e-12, (t1, t2, dim, t)


def test_decay_acts_on_stacks():
    params = channel.DecoherenceParams(t1=20.0, t2=30.0)
    x = np_rng.standard_normal((3, 2, 5, 5)) + 1j * np_rng.standard_normal((3, 2, 5, 5))
    stacked = channel.decay(params, 1.3, x)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(stacked[idx], channel.decay(params, 1.3, x[idx]))


# Hypothesis properties of the closed-form decay: T1 in [1, 1e3] or infinite,
# T2 <= 2 T1 (clipped to the limit), durations in [0, 50].
_times = st.floats(0.0, 50.0)
_params = st.builds(
    lambda t1, t2: channel.DecoherenceParams(t1=t1, t2=min(t2, 2.0 * t1)),
    st.one_of(st.floats(1.0, 1e3), st.just(np.inf)),
    st.one_of(st.floats(1.0, 1e3), st.just(np.inf)),
)


def _random_operator(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 8), _params, _times, _times, st.integers(0, 2**32 - 1))
def test_decay_semigroup(dim, params, s, t, seed):
    x = _random_operator(dim, seed)
    twice = channel.decay(params, s, channel.decay(params, t, x))
    once = channel.decay(params, s + t, x)
    assert np.abs(twice - once).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 8), _params, _times, st.integers(0, 2**32 - 1))
def test_decay_preserves_trace_and_hermiticity(dim, params, t, seed):
    x = _random_operator(dim, seed)
    out = channel.decay(params, t, x)
    assert abs(np.trace(out) - np.trace(x)) <= 1e-12
    adj = channel.decay(params, t, x.conj().T)
    assert np.abs(adj - out.conj().T).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 8), _params, _times)
def test_decay_choi_is_psd(dim, params, t):
    units = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim)
    images = channel.decay(params, t, units)
    choi = images.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    assert np.abs(choi - choi.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh(choi).min() >= -1e-12
