"""Binomial-code definitions and the SNAP/displacement gate sequence."""

import reprlib
from dataclasses import dataclass

import numpy as np

from .channel import DecoherenceParams, choi_to_kraus, decay, operand, unitary_channel
from .errors import ValidationError, read_int, read_numbers, read_real
from .fock import MAX_DIM, displacement, fock_state, snap

# Calibrated parameters for the binomial-code X gate: four displacement
# amplitudes interleaved with three SNAP phase vectors, applied in listed
# order.  Durations in microseconds.
X_GATE_BETAS = (0.610, 0.612, -0.612, -0.610)
X_GATE_THETAS = (
    np.array([-0.67791071, -0.09477794, -1.38876256, 0.53945346, 0.31723896,
              -1.30273005, 0.10376766, 2.65894245, -1.10789012, 0.50023422]),
    np.array([0.0, 2.7514428, 1.55112927, 2.31904201, -1.11177419,
              1.06874247, 0.33546735, -0.44872477, -0.77601542, -0.73785501]),
    np.array([0.45755119, 1.03469991, -0.22172176, 1.70482232, 1.49607879,
              -0.12840042, 1.27637479, -2.36464223, 0.0, 1.66335354]),
)
DISPLACEMENT_DURATION = 0.1
SNAP_DURATION = 0.7


@dataclass(frozen=True)
class BinomialCode:
    """Lowest-order binomial code: |0_L> = |2>, |1_L> = (|0> + |4>)/sqrt(2)."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", read_int(self.dim, "dim", 5, high=MAX_DIM))

    @property
    def zero_l(self):
        return fock_state(2, self.dim)

    @property
    def one_l(self):
        return (fock_state(0, self.dim) + fock_state(4, self.dim)) / np.sqrt(2)

    @property
    def error_vec(self):
        """The state photon loss maps the code words toward, (|0> - |4>)/sqrt(2)."""
        return (fock_state(0, self.dim) - fock_state(4, self.dim)) / np.sqrt(2)

    def projector(self):
        z, o = self.zero_l, self.one_l
        return np.outer(z, z.conj()) + np.outer(o, o.conj())

    def units(self):
        """``[a, b]`` is |c_a><c_b| for the code words c = (0_L, 1_L): (2, 2, d, d)."""
        c = np.stack([self.zero_l, self.one_l])
        return np.einsum("ai,bj->abij", c, c.conj())


@dataclass(frozen=True)
class GateStep:
    """One sequence step, a value: kind 'displace' (alpha, a complex) or
    'snap' (phases, a tuple of floats)."""

    kind: str
    param: object
    duration: float

    def __post_init__(self):
        if self.kind not in ("displace", "snap"):
            raise ValidationError(f"unknown step kind {self.kind!r}")
        object.__setattr__(self, "duration", read_real(
            self.duration, f"{self.kind} step duration", 0))
        displace = self.kind == "displace"
        param = read_numbers(
            self.param, f"{self.kind} step {'alpha' if displace else 'thetas'}",
            complex if displace else float, shape=() if displace else (None,)).tolist()
        object.__setattr__(self, "param", param if displace else tuple(param))

    def unitary(self, dim):
        """The step's dim x dim unitary: D(alpha), or the SNAP diagonal."""
        return (displacement if self.kind == "displace" else snap)(self.param, dim)


def x_gate_sequence():
    """The calibrated seven-step logical-X sequence, a tuple of GateSteps
    (2.5 us total)."""
    steps = [GateStep("displace", complex(X_GATE_BETAS[0]), DISPLACEMENT_DURATION)]
    for theta, beta in zip(X_GATE_THETAS, X_GATE_BETAS[1:]):
        steps.append(GateStep("snap", theta, SNAP_DURATION))
        steps.append(GateStep("displace", complex(beta), DISPLACEMENT_DURATION))
    return tuple(steps)


def _read_steps(sequence):
    """A gate sequence, a list or tuple of GateSteps, as a tuple."""
    if not isinstance(sequence, (list, tuple)) or not all(
            isinstance(step, GateStep) for step in sequence):
        raise ValidationError("sequence must be a list or tuple of GateSteps, "
                              f"got {reprlib.repr(sequence)}")
    return tuple(sequence)


def compose_unitary(sequence, dim):
    """Product of the step unitaries, first listed step applied first."""
    dim = read_int(dim, "dim", 1, high=MAX_DIM)
    u = np.eye(dim, dtype=complex)
    for step in _read_steps(sequence):
        u = step.unitary(dim) @ u
    return u


def ideal_logical_x(code):
    """|0_L><1_L| + |1_L><0_L| as a dim x dim partial isometry."""
    z, o = code.zero_l, code.one_l
    return np.outer(z, o.conj()) + np.outer(o, z.conj())


def ideal_logical_x_unitary(code):
    """The ideal X extended by the identity on the code complement."""
    return ideal_logical_x(code) + np.eye(code.dim) - code.projector()


@dataclass(frozen=True)
class SequenceChannel:
    """The gate sequence (a list or tuple of GateSteps, held as a tuple)
    with cavity decay for each step's duration before that step's unitary
    (``params=None``: unitaries only, applied as their one product
    U x U^dag).  ``apply`` maps just the operators it is given;
    ``noisy_gate_process`` gives the Kraus operators of the same channel.
    """

    sequence: tuple
    params: object
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "sequence", _read_steps(self.sequence))
        object.__setattr__(self, "dim", read_int(self.dim, "dim", 1, high=MAX_DIM))
        if not (self.params is None or isinstance(self.params, DecoherenceParams)):
            raise ValidationError(
                f"params must be None or DecoherenceParams, got {self.params!r}")

    def apply(self, x):
        """The channel on one operator or a stack of them."""
        x = operand(x, self.dim)
        if self.params is None:
            u = compose_unitary(self.sequence, self.dim)
            return u @ x @ u.conj().T
        for step in self.sequence:
            x = decay(self.params, step.duration, x)
            u = step.unitary(self.dim)
            x = u @ x @ u.conj().T
        return x


def noisy_gate_process(sequence, params, dim):
    """Kraus set of ``SequenceChannel(sequence, params, dim)``: rank 1 for
    ``params=None``, else from the Choi matrix of the d^2 matrix-unit images
    (eigenvalues at or below ``EIG_CUTOFF`` dropped)."""
    if params is None:
        return unitary_channel(compose_unitary(sequence, dim))
    # images[a, b] is the image of the matrix unit |a><b|; the units are
    # passed without a name so that apply can free them after the first step
    images = SequenceChannel(sequence, params, dim).apply(
        np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim, dim))
    return choi_to_kraus(images.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim))


def sequence_from_json(data):
    if not isinstance(data, dict) or "steps" not in data:
        raise ValidationError("sequence JSON must be an object containing 'steps'")
    if not isinstance(data["steps"], list):
        raise ValidationError("sequence 'steps' must be a list")
    steps = []
    for entry in data["steps"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"sequence step {entry!r} is not an object")
        kind = entry.get("type")
        if kind not in ("displace", "snap"):
            raise ValidationError(f"unknown step type {kind!r}")
        try:
            param = (complex(*read_numbers(entry["alpha"], "alpha", shape=(2,)))
                     if kind == "displace" else entry["thetas"])
            steps.append(GateStep(kind, param, entry.get("duration", 0.0)))
        except (KeyError, ValidationError) as exc:
            raise ValidationError(f"malformed {kind} step {entry}: {exc!r}") from exc
    return tuple(steps)
