import json

import numpy as np
import pytest

from csqpt import channel, fock, gates
from csqpt.errors import ValidationError

DIM = 32


def test_binomial_code_states():
    code = gates.BinomialCode(DIM)
    z, o = code.zero_l, code.one_l
    assert abs(np.linalg.norm(z) - 1) < 1e-15
    assert abs(np.linalg.norm(o) - 1) < 1e-15
    assert abs(z.conj() @ o) < 1e-15
    assert abs(o.conj() @ code.error_vec) < 1e-15
    p = code.projector()
    assert np.abs(p @ p - p).max() < 1e-14
    assert abs(np.trace(p) - 2) < 1e-14
    with pytest.raises(ValidationError):
        gates.BinomialCode(4)


def test_x_gate_sequence_shape():
    seq = gates.x_gate_sequence()
    # a sequence is the tuple of its steps
    assert type(seq) is tuple and len(seq) == 7
    assert all(isinstance(s, gates.GateStep) for s in seq)
    kinds = [s.kind for s in seq]
    assert kinds == ["displace", "snap", "displace", "snap", "displace", "snap",
                     "displace"]
    assert abs(sum(s.duration for s in seq) - 2.5) < 1e-12
    # first SNAP phase vector enters as exp(i theta) on the diagonal
    u = seq[1].unitary(DIM)
    assert abs(u[0, 0] - np.exp(-0.67791071j)) < 1e-12


def test_composed_x_gate_swaps_code_words():
    seq = gates.x_gate_sequence()
    u = gates.compose_unitary(seq, DIM)
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-10
    code = gates.BinomialCode(DIM)
    assert abs(code.one_l.conj() @ u @ code.zero_l) ** 2 >= 0.98
    assert abs(code.zero_l.conj() @ u @ code.one_l) ** 2 >= 0.98


def test_ideal_logical_x():
    code = gates.BinomialCode(8)
    x = gates.ideal_logical_x(code)
    assert np.abs(x @ code.zero_l - code.one_l).max() < 1e-15
    assert np.abs(x @ code.one_l - code.zero_l).max() < 1e-15
    # partial isometry: X^dag X is the code projector
    assert np.abs(x.conj().T @ x - code.projector()).max() < 1e-14
    u = gates.ideal_logical_x_unitary(code)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-14
    assert np.abs(u @ code.error_vec - code.error_vec).max() < 1e-15


def test_noisy_process_noiseless_limit():
    seq = gates.x_gate_sequence()
    dim = 16
    ideal = gates.noisy_gate_process(seq, None, dim)
    relaxed = gates.noisy_gate_process(
        seq, channel.DecoherenceParams(np.inf, np.inf), dim
    )
    dist = np.linalg.norm(
        channel.kraus_to_super(ideal) - channel.kraus_to_super(relaxed)
    )
    assert dist < 1e-8


def test_noise_free_sequence_channel_is_one_unitary():
    # params=None applies the composed unitary once; the step-by-step
    # product of the seven step unitaries is the reference, <= 1e-13
    seq = gates.x_gate_sequence()
    dim = 16
    ch = gates.SequenceChannel(seq, None, dim)
    rng = np.random.default_rng(14)
    stack = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))

    def stepwise(x):
        for step in seq:
            u = step.unitary(dim)
            x = u @ x @ u.conj().T
        return x

    assert np.abs(ch.apply(stack[0]) - stepwise(stack[0])).max() <= 1e-13
    assert np.abs(ch.apply(stack) - stepwise(stack)).max() <= 1e-13


def test_sequence_channel_reads_its_settings():
    # params is None or decay times, dim an integer size; a bad one is
    # refused where the channel is built, not by AttributeError in apply
    seq = gates.x_gate_sequence()
    for params, dim in (("x", 12), ((315, 478), 12), ({"t1": 315}, 12),
                        (None, 2.5), (None, 0), (None, "12"), (None, True),
                        (None, fock.MAX_DIM + 1)):
        with pytest.raises(ValidationError):
            gates.SequenceChannel(seq, params, dim)
    params = channel.DecoherenceParams(t1=315.0, t2=478.0)
    ch = gates.SequenceChannel(seq, params, 12.0)
    assert type(ch.dim) is int and ch.apply(np.eye(12)).shape == (12, 12)
    # equal settings give equal, equally hashed channels
    again = gates.SequenceChannel(seq, channel.DecoherenceParams(315.0, 478.0), 12)
    assert ch == again and hash(ch) == hash(again) and len({ch, again}) == 1


def test_noisy_process_is_cptp_and_degrades_transfer():
    seq = gates.x_gate_sequence()
    params = channel.DecoherenceParams(t1=315.0, t2=478.0)
    noisy = gates.noisy_gate_process(seq, params, DIM)
    assert noisy.certified
    assert noisy.rank > 1
    code = gates.BinomialCode(DIM)
    rho = channel.apply(noisy, np.outer(code.zero_l, code.zero_l.conj()))
    p_transfer = (code.one_l.conj() @ rho @ code.one_l).real
    ideal_u = gates.compose_unitary(seq, DIM)
    p_ideal = abs(code.one_l.conj() @ ideal_u @ code.zero_l) ** 2
    assert p_transfer < p_ideal
    assert p_transfer > 0.9


def test_noisy_process_population_oracle(lindblad_expm):
    # cross-check the output state against direct vec(rho) evolution under
    # the reference Lindbladian expm
    seq = gates.x_gate_sequence()
    params = channel.DecoherenceParams(t1=315.0, t2=478.0)
    dim = 16
    noisy = gates.noisy_gate_process(seq, params, dim)
    code = gates.BinomialCode(dim)
    rho0 = np.outer(code.zero_l, code.zero_l.conj())
    via_kraus = channel.apply(noisy, rho0)
    via_action = gates.SequenceChannel(seq, params, dim).apply(rho0)
    vec = rho0.flatten(order="F")
    for step in seq:
        vec = lindblad_expm(params, step.duration, dim) @ vec
        u = step.unitary(dim)
        vec = np.kron(u.conj(), u) @ vec
    via_vec = vec.reshape(dim, dim, order="F")
    # the Kraus form drops Choi eigenvalues below EIG_CUTOFF; the action
    # form is exact up to rounding
    assert np.abs(via_kraus - via_vec).max() < 1e-9
    assert np.abs(via_action - via_vec).max() <= 1e-12


def x_gate_json():
    """The X gate written out in the documented sequence JSON format."""
    def displace(beta):
        return {"type": "displace", "alpha": [beta, 0.0], "duration": 0.1}

    steps = [displace(gates.X_GATE_BETAS[0])]
    for theta, beta in zip(gates.X_GATE_THETAS, gates.X_GATE_BETAS[1:]):
        steps.append({"type": "snap", "thetas": theta.tolist(), "duration": 0.7})
        steps.append(displace(beta))
    return json.loads(json.dumps({"steps": steps}))


def test_sequence_json_roundtrip():
    back = gates.sequence_from_json(x_gate_json())
    seq = gates.x_gate_sequence()
    assert sum(s.duration for s in back) == sum(s.duration for s in seq)
    assert type(back) is tuple
    assert [(s.kind, s.duration) for s in back] == [(s.kind, s.duration) for s in seq]
    u1 = gates.compose_unitary(seq, 12)
    u2 = gates.compose_unitary(back, 12)
    assert np.abs(u1 - u2).max() == 0


def test_gate_steps_are_values():
    # equal steps are equal and equally hashed, so sequences and channels
    # compare by what they do, not by which step objects they hold
    seq = gates.x_gate_sequence()
    assert seq == gates.x_gate_sequence() and hash(seq) == hash(gates.x_gate_sequence())
    assert type(seq[0].param) is complex
    assert all(type(t) is float for t in seq[1].param) and type(seq[1].param) is tuple
    snaps = {gates.GateStep("snap", phases, 0.7)
             for phases in ([0.1, -0.2], (0.1, -0.2), np.array([0.1, -0.2]))}
    assert snaps == {gates.GateStep("snap", (0.1, -0.2), 0.7)}
    assert gates.GateStep("displace", 0.5, 0.1) == gates.GateStep("displace", 0.5 + 0j, 0.1)
    assert gates.GateStep("displace", 0.5, 0.1) != gates.GateStep("displace", 0.5, 0.2)


def test_sequence_channels_from_json_and_code_are_one_key():
    params = channel.DecoherenceParams(315.0, 478.0)
    from_json = gates.SequenceChannel(gates.sequence_from_json(x_gate_json()), params, 12)
    from_code = gates.SequenceChannel(gates.x_gate_sequence(), params, 12)
    assert from_json == from_code and hash(from_json) == hash(from_code)
    assert {from_json: "json", from_code: "code"} == {from_code: "code"}


def test_sequence_from_json_rejects_garbage():
    with pytest.raises(ValidationError):
        gates.sequence_from_json({"nope": []})
    with pytest.raises(ValidationError):
        gates.sequence_from_json({"steps": [{"type": "rotate", "duration": 1}]})
    # a top level, a steps field or a step of the wrong JSON type
    for data in (5, {"steps": 5}, {"steps": [1]}):
        with pytest.raises(ValidationError):
            gates.sequence_from_json(data)
    # json parses NaN and Infinity; a non-finite duration, alpha or theta
    # would run through the simulation as nan
    nan, inf = float("nan"), float("inf")
    for entry in ({"type": "displace", "alpha": [0.61, 0], "duration": nan},
                  {"type": "displace", "alpha": [0.61, 0], "duration": inf},
                  {"type": "snap", "thetas": [0.1, nan], "duration": 0.7},
                  {"type": "displace", "alpha": [nan, 0], "duration": 0.1}):
        with pytest.raises(ValidationError, match=f"{entry['type']} step .*finite"):
            gates.sequence_from_json({"steps": [entry]})
    # malformed fields are data errors too, not a raw KeyError or ValueError
    for entry in ({"type": "displace", "duration": 0.1},
                  {"type": "displace", "alpha": "abc", "duration": 0.1},
                  {"type": "snap", "thetas": ["x"], "duration": 0.7},
                  {"type": "displace", "alpha": [0.61, 0], "duration": "z"},
                  # a loose cast would load each of these
                  {"type": "displace", "alpha": [0.61, 0], "duration": "0.5"},
                  {"type": "displace", "alpha": [0.61, 0], "duration": True},
                  {"type": "displace", "alpha": [True, False], "duration": 0.1}):
        with pytest.raises(ValidationError, match=f"malformed {entry['type']} step"):
            gates.sequence_from_json({"steps": [entry]})
