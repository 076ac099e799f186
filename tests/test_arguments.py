"""Every scalar, amplitude and array argument of the library functions is
read by one rule: a value, or any entry of an array, is converted or
refused with a CsqptError, never left to end in a raw TypeError,
ValueError, IndexError or LinAlgError, or in a non-finite or non-unit
result."""

import functools

import numpy as np
import pytest

from csqpt import basis, channel, fock, gates, metrics, reconstruct, tomography
from csqpt.errors import CsqptError, NotAChannelError, RetractionError, ValidationError

ODD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "-1": -1, "2.5": 2.5,
       "True": True, "'1'": "1", "None": None}


@functools.cache
def _dataset():
    return tomography.simulate_dataset(channel.unitary_channel(np.eye(8)),
                                       tomography.probe_grid(2, 0.5),
                                       tomography.wigner_grid(9, 1.0))


def _code_of_dim(dim):
    code = gates.BinomialCode(6)
    object.__setattr__(code, "dim", dim)  # past BinomialCode's own reader
    return code


def _mc(samples=8, seed=0):
    code = gates.BinomialCode(6)
    u = gates.ideal_logical_x_unitary(code)
    return metrics.mc_avg_gate_fidelity(channel.unitary_channel(u), u, code,
                                        samples, seed)


def _x_channel():
    return channel.unitary_channel(gates.ideal_logical_x_unitary(gates.BinomialCode(6)))


def _target(v):
    # row 1 of the ideal X is zero: an entry v at column 2 (0_L is |2>)
    # keeps every row in the code space and every code-word overlap
    rows = gates.ideal_logical_x(gates.BinomialCode(6)).tolist()
    rows[1][2] = v
    return rows


@functools.cache
def _gellmann():
    return basis.gellmann_set(basis.logical_ordered_basis(gates.BinomialCode(6)))


@functools.cache
def _fit():
    """(ks, report, cfg) of a one-step fit of ``_dataset()``."""
    cfg = reconstruct.ReconstructionConfig(rank=1, dim=8, max_iters=1)
    return (*reconstruct.reconstruct(_dataset(), cfg), cfg)


def _params(t1, t2):
    p = channel.DecoherenceParams(t1, t2)
    return [p.loss_rate, p.dephasing_rate]


# argument: (call returning the array that must be finite, the labels of
# ODD that it accepts, one more valid value); a whole float stands for an
# integer, and each call uses the converted value as a size or an index.
# At an array argument the value is one entry of an otherwise valid array.
SITES = {
    "fock_state n": (lambda v: fock.fock_state(v, 4), (), 3.0),
    "displacement alpha": (lambda v: fock.displacement(v, 4), ("-1", "2.5"), 0.5j),
    "DecoherenceParams t1": (lambda v: _params(v, 1.0), ("inf", "2.5"), 3),
    "DecoherenceParams t2": (lambda v: _params(10.0, v), ("2.5",), 20),
    "decay duration": (lambda v: channel.decay(
        channel.DecoherenceParams(10.0, 10.0), v, np.eye(4) / 4), ("2.5",), 0),
    "random_channel rank": (lambda v: channel.random_channel(
        4, v, np.random.default_rng(0)).operators, (), 2.0),
    "BinomialCode dim": (lambda v: np.zeros(gates.BinomialCode(v).dim), (), 6.0),
    "logical_ordered_basis dim": (
        lambda v: basis.logical_ordered_basis(_code_of_dim(v)).vectors, (), 6.0),
    "mc_avg_gate_fidelity samples": (lambda v: _mc(samples=v), (), 4.0),
    "mc_avg_gate_fidelity seed": (lambda v: _mc(seed=v), (), 7.0),
    "process_fidelity_choi subspace_cut": (lambda v: metrics.process_fidelity_choi(
        channel.unitary_channel(np.eye(4)), channel.unitary_channel(np.eye(4)), v),
        ("None",), 2.0),  # None, the default, compares the whole space
    "subsample_grid stride": (
        lambda v: tomography.subsample_grid(_dataset(), v).values, (), 2.0),
    "probe_grid n": (lambda v: tomography.probe_grid(v).alphas, (), 3.0),
    "probe_grid alpha_max": (lambda v: tomography.probe_grid(3, v).alphas,
                             ("2.5",), 1),
    "coherent_state alpha": (lambda v: fock.coherent_state(v, 32), ("-1", "2.5"), 0.5j),
    "GateStep displace alpha": (lambda v: gates.GateStep("displace", v, 0.1).unitary(4),
                                ("-1", "2.5"), 0.5j),
    "GateStep snap thetas": (lambda v: gates.GateStep("snap", [0.1, v], 0.7).unitary(4),
                             ("-1", "2.5"), 0.5),
    "GateStep.unitary dim": (lambda v: gates.GateStep("snap", [0.1], 0.7).unitary(v),
                             (), 4.0),
    "snap thetas": (lambda v: fock.snap([0.1, v], 4), ("-1", "2.5"), 0.5),
    "wigner_value beta": (lambda v: tomography.wigner_value(np.eye(4) / 4, v),
                          ("-1", "2.5"), 0.5j),
    "probe_kets alphas": (lambda v: tomography.probe_kets([0.1, v], 32),
                          ("-1", "2.5"), 0.5j),
    "random_channel dim": (lambda v: channel.random_channel(
        v, 1, np.random.default_rng(0)).operators, (), 2.0),
    "KrausSet operators": (lambda v: channel.KrausSet([[[1, 0], [0, v]]]).operators,
                           ("-1", "2.5"), 0.5j),
    "wigner_value rho": (lambda v: tomography.wigner_value([[0.5, 0], [0, v]], 0.5j),
                         ("-1", "2.5"), 0.5),
    "avg_gate_fidelity target": (lambda v: metrics.avg_gate_fidelity(
        _x_channel(), _target(v), gates.BinomialCode(6)).f_avg, ("-1", "2.5"), 0.5j),
    "mc_avg_gate_fidelity target": (lambda v: metrics.mc_avg_gate_fidelity(
        _x_channel(), _target(v), gates.BinomialCode(6), 8), ("-1", "2.5"), 0.5j),
    "apply x": (lambda v: channel.unitary_channel(np.eye(2)).apply([[0.5, 0], [0, v]]),
                ("-1", "2.5"), 0.5j),
    "decay params": (lambda v: channel.decay(v, 0.1, np.eye(4) / 4), (),
                     channel.DecoherenceParams(10.0, 10.0)),
    "decay_superoperator dim": (lambda v: channel.decay_superoperator(
        channel.DecoherenceParams(10.0, 10.0), 0.1, v), (), 3.0),
    "decay x": (lambda v: channel.decay(channel.DecoherenceParams(10.0, 10.0), 0.1,
                                        [[0.5, 0], [0, v]]), ("-1", "2.5"), 0.5j),
    "transfer_matrix row": (lambda v: basis.transfer_matrix(
        _x_channel(), _gellmann(), rows=[0, v]).elements, (), 3.0),
    "compose_unitary dim": (
        lambda v: gates.compose_unitary(gates.x_gate_sequence(), v), (), 12.0),
    "parity_model dim": (lambda v: tomography.parity_model([0.5, 0.5j], v).packed,
                         (), 4.0),
    "displaced_parity_ops dim": (
        lambda v: tomography.displaced_parity_ops([0.5, 0.5j], v), (), 4.0),
    # the fit layer's objects: each call reads the object before using it
    "loss ks": (lambda v: reconstruct.loss(v, _dataset(), 0.0).history, (),
                channel.unitary_channel(np.eye(8))),
    "euclidean_gradient ks": (lambda v: reconstruct.euclidean_gradient(
        v, _dataset(), 0.0), (), channel.unitary_channel(np.eye(8))),
    "predict_wigner ks": (lambda v: reconstruct.predict_wigner(
        v, _dataset().probes, _dataset().betas), (),
        channel.unitary_channel(np.eye(8))),
    "loss ds": (lambda v: reconstruct.loss(_fit()[0], v, 0.0).history, (), _dataset()),
    "euclidean_gradient ds": (lambda v: reconstruct.euclidean_gradient(
        _fit()[0], v, 0.0), (), _dataset()),
    "reconstruct ds": (lambda v: reconstruct.reconstruct(v, _fit()[2])[1].history, (),
                       _dataset()),
    "reconstruct cfg": (lambda v: reconstruct.reconstruct(_dataset(), v)[1].history, (),
                        reconstruct.ReconstructionConfig(rank=1, dim=8, max_iters=1)),
    "result_to_json report": (lambda v: reconstruct.result_to_json(
        _fit()[0], v, _fit()[2])["history"], (), _fit()[1]),
    "result_to_json cfg": (lambda v: reconstruct.result_to_json(
        *_fit()[:2], v)["history"], (), _fit()[2]),
    "kraus_to_json ks": (lambda v: channel.kraus_to_json(v)["operators"], (),
                         channel.unitary_channel(np.eye(8))),
}
AMPLITUDES = ("displacement alpha", "coherent_state alpha", "GateStep displace alpha",
              "wigner_value beta", "probe_kets alphas")


@pytest.mark.parametrize("site, label", [
    (site, label) for site in SITES for label in (*ODD, "valid")])
def test_library_arguments_are_read_or_refused(site, label):
    call, accepted, valid = SITES[site]
    value = valid if label == "valid" else ODD[label]
    if label == "valid" or label in accepted:
        out = np.asarray(call(value))
        assert np.isfinite(out).all()
        if site == "fock_state n":
            assert np.linalg.norm(out) == 1
    else:
        with pytest.raises(CsqptError):
            call(value)


@pytest.mark.parametrize("site", AMPLITUDES)
def test_numpy_complex_scalars_are_amplitudes(site):
    call = SITES[site][0]
    assert np.array_equal(call(np.complex64(0.5j)), call(0.5j))


# refusals name the argument as the site does, but for the decay times
# ("decay times", "T1") and the probe extent ("grid extent")
@pytest.mark.parametrize("site, label", [
    (site, label) for site in SITES for label in ODD if label not in SITES[site][1]
    and not site.startswith(("DecoherenceParams", "probe_grid alpha_max"))])
def test_refusals_name_the_argument(site, label):
    with pytest.raises(CsqptError, match=site.split()[-1]):
        SITES[site][0](ODD[label])


# a matrix of the wrong shape, or with a string, boolean or NaN entry
BAD_MATRICES = {"2x3": np.zeros((2, 3)), "0-d": np.array(0.5),
                "'x'": [[1, 0], [0, "x"]], "True": [[True, 0], [0, 1]],
                "nan": [[np.nan, 0], [0, 1]]}
MATRIX_SITES = {
    "operators": lambda m: channel.KrausSet([m]),
    "rho": lambda m: tomography.wigner_value(m, 0.5j),
    "target": lambda m: metrics.avg_gate_fidelity(_x_channel(), m, gates.BinomialCode(6)),
}


@pytest.mark.parametrize("name", MATRIX_SITES)
@pytest.mark.parametrize("label", BAD_MATRICES)
def test_matrices_are_read_whole(name, label):
    with pytest.raises(CsqptError, match=name):
        MATRIX_SITES[name](BAD_MATRICES[label])


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_non_finite_operands_raise_the_package_errors(fill):
    # numpy warns on an infinite matrix's Hermitian defect, inf - inf
    with np.errstate(invalid="ignore"), pytest.raises(NotAChannelError):
        channel.choi_to_kraus(np.full((4, 4), fill))
    with pytest.raises(RetractionError):
        reconstruct.retract(np.full((4, 2), fill))


def test_transfer_matrix_of_no_rows_is_empty():
    gm = basis.gellmann_set(basis.logical_ordered_basis(gates.BinomialCode(6)))
    lam = basis.transfer_matrix(channel.unitary_channel(np.eye(6)), gm, rows=[])
    assert lam.elements.shape == (0, 0) and lam.labels == ()


def test_transfer_matrix_rows_are_element_indices():
    # the last of dim^2 = 36 elements is row 35, and 36 is past it
    ch = channel.unitary_channel(np.eye(6))
    last = basis.transfer_matrix(ch, _gellmann(), rows=[np.int64(35)])
    assert last.labels == (_gellmann().labels[35],)
    with pytest.raises(CsqptError, match="row must be an integer >= 0 and <= 35"):
        basis.transfer_matrix(ch, _gellmann(), rows=[0, 36])


# not a list or tuple of GateSteps: numbers, a string, a step alone, a
# nested sequence, a set, a step list with a stray entry
STEP = gates.GateStep("displace", 0.5, 0.1)
BAD_SEQUENCES = {"[1, 2]": [1, 2], "'ab'": "ab", "5": 5, "None": None,
                 "step": STEP, "nested": ((STEP,),), "set": {STEP},
                 "stray": [STEP, "x"]}
SEQUENCE_SITES = {
    "unitary channel": lambda seq: gates.SequenceChannel(seq, None, 4).apply(np.eye(4)),
    "noisy channel": lambda seq: gates.SequenceChannel(
        seq, channel.DecoherenceParams(1, 1), 4).apply(np.eye(4)),
    "compose_unitary": lambda seq: gates.compose_unitary(seq, 4),
    "noisy_gate_process": lambda seq: gates.noisy_gate_process(seq, None, 4),
}


@pytest.mark.parametrize("site", SEQUENCE_SITES)
@pytest.mark.parametrize("label", BAD_SEQUENCES)
def test_sequences_are_lists_of_gate_steps(site, label):
    with pytest.raises(ValidationError, match="sequence"):
        SEQUENCE_SITES[site](BAD_SEQUENCES[label])


def test_sequence_channel_holds_its_steps_as_a_tuple():
    seq = gates.x_gate_sequence()
    ch = gates.SequenceChannel(list(seq), None, 12)
    assert ch.sequence == seq and ch == gates.SequenceChannel(seq, None, 12)
    assert hash(ch) == hash(gates.SequenceChannel(seq, None, 12))
    assert np.array_equal(gates.compose_unitary(list(seq), 12),
                          gates.compose_unitary(seq, 12))
    # no step is the identity, at any dim
    assert np.array_equal(gates.compose_unitary((), 3), np.eye(3))


@pytest.mark.parametrize("call, name", [
    (tomography.probe_kets, "alphas"), (tomography.parity_model, "betas"),
    (tomography.displaced_parity_ops, "betas")])
@pytest.mark.parametrize("empty", [[], (), np.zeros(0, complex)])
def test_amplitude_lists_are_not_empty(call, name, empty):
    with pytest.raises(ValidationError, match=name):
        call(empty, 4)


@pytest.mark.parametrize("rows", [
    5, np.int64(5), "05", b"\x00", [[0, 1]], [0, [1]], (0, (1,)), np.zeros((2, 1), int),
    np.array(3), {0, 1}], ids=repr)
def test_transfer_matrix_rows_are_a_flat_list(rows):
    with pytest.raises(ValidationError, match="rows"):
        basis.transfer_matrix(_x_channel(), _gellmann(), rows=rows)


def test_transfer_matrix_rows_come_as_list_tuple_range_or_array():
    want = basis.transfer_matrix(_x_channel(), _gellmann(), rows=[0, 1, 2])
    for rows in ((0, 1, 2), range(3), np.arange(3)):
        got = basis.transfer_matrix(_x_channel(), _gellmann(), rows=rows)
        assert np.array_equal(got.elements, want.elements) and got.labels == want.labels
