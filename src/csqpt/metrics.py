"""Channel quality analysis: fidelities, leakage, truncation, error budgets.

Fidelity conventions for the logical qubit (d_L = 2):

* process fidelity against the logical partial isometry U,
  F_pro = sum_i |Tr[U^dag K_i]|^2 / 4
        = sum_ab <U c_a| E(|c_a><c_b|) |U c_b> / 4 over the code words c_a;
* leakage L = 1 - Tr[P_L E(P_L/2)] with P_L the code projector;
* average gate fidelity F_avg = (2 F_pro + 1 - L) / 3, cross-checked
  against the direct form (sum_i |Tr[U^dag K_i]|^2 + 2 Tr[P_L E(P_L/2)]) / 6.

Channels are anything with ``dim`` and a stack-wise ``apply``; only the
Monte Carlo estimate, the Choi fidelity and the truncation sweep read
Kraus operators, so they take a ``KrausSet`` and refuse anything else.
"""

from dataclasses import dataclass

import numpy as np

from .channel import DecoherenceParams, KrausSet
from .errors import (
    DimensionMismatchError,
    NotAChannelError,
    NumericalConsistencyError,
    ValidationError,
    read_instance,
    read_int,
    read_numbers,
)
from .gates import BinomialCode, SequenceChannel, ideal_logical_x

# the two average-fidelity computations must agree this tightly
FAVG_CONSISTENCY_TOL = 1e-12

MC_BLOCK = 1024


@dataclass(frozen=True)
class FidelityReport:
    f_pro: float
    leakage: float
    f_avg: float
    f_avg_direct: float
    dim_logical: int = 2


@dataclass(frozen=True)
class ErrorBudget:
    """Per-mechanism infidelity contributions over a decoherence-free baseline.

    Only cavity decoherence channels are modeled; ancilla-qubit error
    channels are outside the scope of this budget.
    """

    baseline: float
    contributions: tuple
    clipped: tuple = ()


def _unit_interval(x, what):
    if not -1e-12 <= x <= 1 + 1e-12:
        raise NumericalConsistencyError(f"{what} = {x} outside [0, 1]")
    return float(min(max(x, 0.0), 1.0))


def _read_target(channel, u, code):
    u = read_numbers(u, "target", complex, shape=(None, None))
    read_instance(code, BinomialCode, "code")
    if channel.dim != code.dim or u.shape != (channel.dim, channel.dim):
        raise DimensionMismatchError(
            f"channel dim {channel.dim}, target shape {u.shape}, "
            f"code dim {code.dim} must all agree"
        )
    return u


def avg_gate_fidelity(channel, u, code):
    """FidelityReport combining process fidelity and leakage.

    ``u`` must act within the code space, u (I - P_L) = 0, as
    ``ideal_logical_x`` does; otherwise ValidationError.  Both terms come
    from one ``apply`` on the four code units.  The combined form
    (2 F_pro + 1 - L)/3 and the direct trace form must agree to 1e-12;
    disagreement means the channel violates the identity's assumptions.
    """
    u = _read_target(channel, u, code)
    p = code.projector()
    off_code = np.linalg.norm(u - u @ p)
    if off_code > 1e-8:
        raise ValidationError(
            f"target acts outside the code space: ||u(I-P)|| = {off_code:.2e}"
        )
    units = code.units()
    images = channel.apply(units)
    # sum_ab <U c_a| E(|c_a><c_b|) |U c_b> and Tr[P E(P/2)]
    overlap = np.vdot(u @ units @ u.conj().T, images).real
    kept = 0.5 * np.einsum("ij,aaji->", p, images).real
    f_pro = _unit_interval(float(overlap) / 4.0, "f_pro")
    leak = _unit_interval(1.0 - float(kept), "leakage")
    f_avg = (2.0 * f_pro + 1.0 - leak) / 3.0
    direct = (float(overlap) + 2.0 * float(kept)) / 6.0
    if abs(f_avg - direct) > FAVG_CONSISTENCY_TOL:
        raise NumericalConsistencyError(
            f"avg-fidelity forms disagree: {f_avg} vs {direct}"
        )
    return FidelityReport(
        f_pro=f_pro, leakage=leak, f_avg=_unit_interval(f_avg, "f_avg"),
        f_avg_direct=direct,
    )


def mc_avg_gate_fidelity(channel, u, code, samples=10000, seed=0):
    """Monte-Carlo estimate of the average gate fidelity and its std error.

    Averages <psi|U^dag E(|psi><psi|) U|psi> over Haar-random logical
    states.  Samples are drawn in fixed blocks of 1024, block b from the
    substream (seed, b), so the estimate is reproducible and the blocks
    could be evaluated in parallel with a deterministic reduction.
    """
    u = _read_target(read_instance(channel, KrausSet, "channel"), u, code)
    samples, seed = read_int(samples, "samples", 2), read_int(seed, "seed", 0)
    z, o = code.zero_l, code.one_l
    vals = np.empty(samples)
    done = 0
    block = 0
    while done < samples:
        n = min(MC_BLOCK, samples - done)
        rng = np.random.default_rng([seed, block])
        amp = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        amp /= np.linalg.norm(amp, axis=1)[:, None]
        psi = amp[:, 0][:, None] * z + amp[:, 1][:, None] * o  # (n, d)
        phi = np.einsum("kab,nb->kan", channel.operators, psi)
        target = psi @ u.T  # rows are U|psi_n>
        overlap = np.einsum("na,kan->kn", target.conj(), phi)
        vals[done : done + n] = (np.abs(overlap) ** 2).sum(axis=0)
        done += n
        block += 1
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(samples))
    return mean, stderr


def process_fidelity_choi(a, b, subspace_cut=None):
    """Uhlmann fidelity of the trace-normalized Choi matrices.

    With ``subspace_cut`` given, both Choi matrices are first compressed
    onto input Fock states 0..subspace_cut and renormalized, comparing the
    processes only on the subspace the probe data can constrain.

    Computed in Kraus form: the rows of A hold the vectorized Kraus
    operators of ``a`` restricted to input columns 0..subspace_cut, so its
    compressed Choi matrix is A^T A*, and likewise B.  The fidelity is then
    ||A* B^T||_1^2 / (||A||^2 ||B||^2), one rank_a x rank_b SVD.
    """
    a, b = read_instance(a, KrausSet, "a"), read_instance(b, KrausSet, "b")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"channel dims {a.dim} and {b.dim} differ")
    d = a.dim
    cut = d - 1 if subspace_cut is None else read_int(
        subspace_cut, "subspace_cut", 0, high=d - 1)
    va = a.operators[:, :, : cut + 1].reshape(a.rank, -1)
    vb = b.operators[:, :, : cut + 1].reshape(b.rank, -1)
    ta, tb = np.vdot(va, va).real, np.vdot(vb, vb).real
    if min(ta, tb) <= 0:
        raise NotAChannelError("projected Choi matrix has no support")
    trace_norm = np.linalg.svd(va.conj() @ vb.T, compute_uv=False).sum()
    fid = float(trace_norm**2 / (ta * tb))
    if not -1e-8 <= fid <= 1 + 1e-8:
        raise NumericalConsistencyError(f"choi fidelity = {fid} outside [0, 1]")
    return float(min(max(fid, 0.0), 1.0))


def truncation_sweep(channel, reference, cuts):
    """(cut, subspace process fidelity) for each requested input Fock cut,
    ``cuts`` being a flat list of integers in [0, dim)."""
    channel = read_instance(channel, KrausSet, "channel")
    reference = read_instance(reference, KrausSet, "reference")
    cuts = [read_int(c, "cut", 0, high=channel.dim - 1)
            for c in read_numbers(cuts, "cuts", shape=(None,)).tolist()]
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError("cuts must be strictly ascending")
    return [
        (cut, process_fidelity_choi(channel, reference, subspace_cut=cut))
        for cut in cuts
    ]


def error_budget(seq, params, code):
    """Infidelity contribution of each cavity decoherence mechanism.

    Each mechanism is activated alone (photon loss with dephasing off;
    pure dephasing with loss off) and its composed-gate infidelity
    compared against the decoherence-free baseline.  ``params`` must be
    a DecoherenceParams.
    """
    params = read_instance(params, DecoherenceParams, "params")
    dim = read_instance(code, BinomialCode, "code").dim
    target = ideal_logical_x(code)

    def infidelity(p):
        ch = SequenceChannel(seq, p, dim)
        return 1.0 - avg_gate_fidelity(ch, target, code).f_avg

    baseline = infidelity(None)
    t_phi = 1.0 / params.dephasing_rate if params.dephasing_rate > 0 else np.inf
    mechanisms = (("photon-loss", DecoherenceParams(params.t1, 2.0 * params.t1)),
                  ("pure-dephasing", DecoherenceParams(np.inf, t_phi)))

    contributions, clipped = [], []
    for label, p in mechanisms:
        delta = infidelity(p) - baseline
        if delta < -1e-6:
            raise NumericalConsistencyError(
                f"{label} contribution {delta} below -1e-6"
            )
        if delta < 0:
            clipped.append(label)
            delta = 0.0
        contributions.append((label, float(delta)))
    return ErrorBudget(
        baseline=float(baseline), contributions=tuple(contributions),
        clipped=tuple(clipped),
    )


# logical cardinal states x+, x-, y+, y-, z+, z- as (0_L, 1_L) amplitudes
_CARDINALS = np.array(
    [[1, 1], [1, -1], [1, 1j], [1, -1j], [np.sqrt(2), 0], [0, np.sqrt(2)]]
) / np.sqrt(2)


def _decoder_unitary(code):
    """D_min on ancilla (x) cavity: swap |g,1_L> <-> |e,0_L>, fix the rest."""
    d = code.dim
    g1 = np.kron(np.array([1.0, 0.0]), code.one_l)
    e0 = np.kron(np.array([0.0, 1.0]), code.zero_l)
    u = np.eye(2 * d, dtype=complex)
    u += np.outer(g1, e0.conj()) + np.outer(e0, g1.conj())
    u -= np.outer(g1, g1.conj()) + np.outer(e0, e0.conj())
    return u


def decoder_study(channel, code):
    """Ancilla PTM seen through the minimal decoder vs the direct logical PTM.

    For each logical cardinal state the ancilla is prepared in the matching
    two-level state, the cavity in the channel output; the decoder swaps
    logical information onto the ancilla and the cavity is traced out.
    Leakage hides from the decoded picture (its first row always reads
    trace preservation), while the direct PTM records it; one ``apply`` feeds both.
    """
    # the only use of basis here: error_budget runs without loading it
    from .basis import PAULIS, TransferMatrix, logical_ptm_of_images

    d = read_instance(code, BinomialCode, "code").dim
    u = _decoder_unitary(code)
    units = code.units()
    images = channel.apply(units)
    measured = []
    for anc in _CARDINALS:
        # E(|psi><psi|) for psi = sum_a anc_a c_a, by linearity
        rho_cav = np.einsum("a,b,abij->ij", anc, anc.conj(), images)
        out = u @ np.kron(np.outer(anc, anc.conj()), rho_cav) @ u.conj().T
        measured.append(np.einsum("aibi->ab", out.reshape(2, d, 2, d)))
    xp, xm, yp, ym, zp, zm = measured
    lam = np.stack([sum(measured) / 3.0, xp - xm, yp - ym, zp - zm])
    r = 0.5 * np.einsum("iab,jba->ij", PAULIS, lam)
    if np.abs(r.imag).max() > 1e-8:
        raise NumericalConsistencyError("decoded transfer matrix has imaginary residue")
    decoded = TransferMatrix(r.real, ("I", "X", "Y", "Z"))
    return decoded, logical_ptm_of_images(units, images)

