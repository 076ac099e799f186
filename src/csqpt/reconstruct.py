"""Kraus-operator learning from Wigner data on the CPTP manifold.

The channel is parametrized by the vertical stack V of its rank Kraus
operators, an (r*d) x d matrix.  Trace preservation is exactly the isometry
constraint V^dag V = I, so the feasible set is a complex Stiefel manifold
and the optimizer is projected gradient descent: Wirtinger gradient,
tangent-space projection, Armijo backtracking, polar retraction.

The retraction of a tangent step xi at an isometry V has a closed form.
V^dag xi is skew-Hermitian, so (V - t xi)^dag (V - t xi) = I + t^2 xi^dag xi
and the polar factor of V - t xi is (V - t xi)(I + t^2 xi^dag xi)^(-1/2)
(Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
2008).  One d x d ``eigh`` of xi^dag xi per iteration serves every trial
step of the line search, each then one (r*d) x d by d x d product, and the
retraction is never rank-deficient.  The form assumes V^dag V = I exactly,
so each accepted point gets one Newton-Schulz step, which keeps every
iterate an isometry to rounding.  The public ``retract`` takes arbitrary
matrices and keeps the SVD polar factor with its rank check.

The line search starts each iteration from the step the previous one
accepted (``cfg.step_size`` at first) and shrinks it by ``ARMIJO_FACTOR``
until the Armijo test passes.  The step grows by 1/``ARMIJO_FACTOR`` only
after ``GROW_AFTER`` iterations in a row accepted their first trial, so
most iterations cost one forward pass; the loss history never rises.

A fit stops for one of ``STOP_REASONS``: the projected gradient norm fell
to ``grad_tol``, the line search found no decrease above the step floor
``MIN_STEP``, or ``max_iters`` steps were taken.

The loss is L = l2 + gamma * l1 with l2 the squared Wigner residual and l1
the sum of |Re| and |Im| over the stack.  For a shot-noise dataset
(``shots`` > 0) each squared residual is weighted by the inverse of that
point's binomial variance, estimated from the measured W (weighted least
squares); exact datasets are fitted unweighted.

Predictions come from ``tomography.ParityModel``, the forward model that
also simulates datasets: the probes' output states, packed into d^2 real
coordinates, times the cached packed parity operators in one real GEMM.
The l2 gradient runs the transposed GEMM to form N_i = sum_j r_ij M_j and
applies it to the probe images K_k |alpha_i> in one batched product.

Gradient convention: for a real loss L the array returned by
``euclidean_gradient`` is G = dL/d(conj V), so the derivative of L along a
perturbation dV is 2 Re<G, dV>.  Finite differences per real coordinate
therefore recover 2*Re(G) and 2*Im(G).
"""

import json
from dataclasses import dataclass

import numpy as np

from .channel import KrausSet, kraus_from_json, kraus_to_json, require_certified
from .errors import (
    DimensionMismatchError,
    RetractionError,
    ValidationError,
)
from .tomography import ParityModel, parity_model, probe_kets

# the name the gradient checks call the probe-ket cache by
_probe_kets = probe_kets

RESULT_SCHEMA = "csqpt-result-v1"

# V^dag V may drift this far from I before a point is rejected
ISOMETRY_TOL = 1e-8

INIT_MODES = ("identity-perturbed", "random-isometry")

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
# first trials accepted in a row before the next one tries a larger step
GROW_AFTER = 3
MIN_STEP = 1e-14

# why a fit stopped; only "grad_tol" counts as converged
STOP_REASONS = ("grad_tol", "line_search_floor", "max_iters")


@dataclass(frozen=True)
class ReconstructionConfig:
    rank: int = 4
    dim: int = 32
    gamma: float = 4e-4
    max_iters: int = 2000
    step_size: float = 0.1
    grad_tol: float = 1e-6
    seed: int = 0
    init: str = "identity-perturbed"

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be at least 1")
        if self.dim < 2:
            raise ValidationError("dim must be at least 2")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValidationError("gamma must be finite and non-negative")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be non-negative")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValidationError("step_size must be finite and positive")
        if not self.grad_tol >= 0:  # NaN included
            raise ValidationError("grad_tol must be non-negative")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.init not in INIT_MODES:
            raise ValidationError(f"init must be one of {INIT_MODES}")


@dataclass(frozen=True)
class IsometryPoint:
    """Vertical stack of Kraus operators with V^dag V = I within 1e-8."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[1] < 1 or m.shape[0] % m.shape[1] != 0:
            raise DimensionMismatchError(
                f"stack shape {m.shape} is not (r*d, d) for integer r"
            )
        defect = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1]))
        if defect > ISOMETRY_TOL:
            raise ValidationError(
                f"stack is not an isometry: ||V^dag V - I|| = {defect:.2e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[1]

    @property
    def rank(self):
        return self.matrix.shape[0] // self.matrix.shape[1]

    def kraus(self):
        """The stack split back into its (rank, dim, dim) Kraus operators."""
        return self.matrix.reshape(self.rank, self.dim, self.dim)


@dataclass(frozen=True)
class LossReport:
    l2: float
    l1: float
    total: float
    grad_norm: float
    iters_used: int
    history: tuple
    converged: bool = True
    stop_reason: str = None  # one of STOP_REASONS; None without a fit

    def __post_init__(self):
        if self.stop_reason is None:
            return
        if self.stop_reason not in STOP_REASONS:
            raise ValidationError(
                f"stop_reason must be one of {STOP_REASONS}, "
                f"not {self.stop_reason!r}"
            )
        if self.converged != (self.stop_reason == "grad_tol"):
            raise ValidationError(
                f"converged={self.converged} contradicts "
                f"stop_reason {self.stop_reason!r}"
            )


def stack_kraus(operators):
    """IsometryPoint from Kraus operators of shape (rank, dim, dim)."""
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError("operators must have shape (rank, dim, dim)")
    return IsometryPoint(ops.reshape(-1, ops.shape[2]))


def _as_alphas(probes):
    return np.asarray(getattr(probes, "alphas", probes), dtype=complex)


def _as_betas(grid):
    return np.asarray(getattr(grid, "betas", grid), dtype=complex)


def _predict(v, kets, mops):
    """W_pred[i, j] for stack v, probe kets (n_p, d) and the parity stack
    (n_b, d, d) or its ParityModel."""
    return ParityModel.of(mops).wigner(v, kets)


def predict_wigner(point, probes, grid):
    """Wigner predictions of the channel encoded by an isometry point.

    The forward model ``simulate_dataset`` shares (``ParityModel.wigner``):
    the output states rho_i come from the probe images K_k |alpha_i> in one
    batched product, are packed into d^2 real coordinates and meet the
    packed parity operators in one real GEMM.  Probe kets and parity
    operators are built once per (grid, dim) and cached.
    """
    kets = probe_kets(_as_alphas(probes), point.dim)
    model = parity_model(_as_betas(grid), point.dim)
    return _predict(point.matrix, kets, model)


def _l1_parts(v):
    return float(np.abs(v.real).sum() + np.abs(v.imag).sum())


def _residual_weights(ds):
    """Inverse-variance weights, normalised to mean 1, or None for exact data.

    A W value averaged over ``shots`` parity bits has variance
    (2/pi)^2 (1 - (pi W / 2)^2) / shots.  The relative variance
    1 - (pi W / 2)^2 vanishes at |W| = 2/pi, where every shot agreed, so it
    is floored at 4/shots: about the value one dissenting shot would give,
    4 (shots - 1) / shots^2, and never zero.  Sampling cannot resolve a
    smaller variance, so no point outweighs the mean by more than shots/4;
    at four shots or fewer the weights are uniform.  The mean-1
    normalisation cancels the common factor (2/pi)^2 / shots and keeps l2
    on the scale of the unweighted sum, so gamma means the same for exact
    and shot-noise datasets.
    """
    if ds.shots <= 0:
        return None
    var = np.maximum(1.0 - (ds.values * (np.pi / 2)) ** 2, 4.0 / ds.shots)
    w = 1.0 / var
    return w / w.mean()


def _objective(ds, dim, what):
    """(kets, model, y, weights): the fixed inputs of the loss for a dataset.

    The one place that decides what ``loss``, ``euclidean_gradient`` and
    ``reconstruct`` minimise; ``what`` names the dim the dataset must match.
    """
    if ds.dim != dim:
        raise DimensionMismatchError(
            f"dataset dim {ds.dim} does not match {what} dim {dim}"
        )
    kets = probe_kets(ds.probes, dim)
    model = parity_model(ds.betas, dim)
    return kets, model, ds.values, _residual_weights(ds)


def _loss_terms(v, kets, mops, y_data, gamma, weights=None):
    """(l2, l1, total, wresid) with l2 = sum w r^2 and wresid = w r.

    ``weights=None`` is the unweighted loss (w = 1).  ``wresid`` is what
    ``_gradient`` takes.
    """
    resid = _predict(v, kets, mops) - y_data
    wresid = resid if weights is None else weights * resid
    l2 = float((resid * wresid).sum())
    l1 = _l1_parts(v)
    return l2, l1, l2 + gamma * l1, wresid


def loss(point, ds, gamma):
    """LossReport of an isometry point against a dataset (no optimization).

    ``l2`` is the residual term ``reconstruct`` minimises: variance-weighted
    for a shot-noise dataset, the plain sum of squares for exact data.
    """
    kets, mops, y, weights = _objective(ds, point.dim, "stack")
    l2, l1, total, _ = _loss_terms(point.matrix, kets, mops, y, gamma, weights)
    return LossReport(
        l2=l2, l1=l1, total=total, grad_norm=0.0, iters_used=0,
        history=(total,),
    )


def _l2_gradient(v, kets, mops, resid):
    """Wirtinger dL2/d(conj V) = 2 sum_ij resid_ij dW_ij/d(conj V) for the
    weighted residual ``resid``."""
    return 2.0 * ParityModel.of(mops).gradient(v, kets, resid)


def _l1_subgradient(v):
    # d(|Re z| + |Im z|)/d(conj z) = (sign Re + i sign Im) / 2, 0 at 0
    return 0.5 * (np.sign(v.real) + 1j * np.sign(v.imag))


def _gradient(v, kets, mops, wresid, gamma):
    """Wirtinger gradient of the total loss, given the weighted residual."""
    g = _l2_gradient(v, kets, mops, wresid)
    if gamma > 0:
        g = g + gamma * _l1_subgradient(v)
    return g


def euclidean_gradient(point, ds, gamma):
    """Wirtinger gradient with respect to conj(V) of the loss ``loss`` reports.

    For a shot-noise dataset the residuals are variance-weighted, as in
    ``reconstruct``.
    """
    kets, mops, y, weights = _objective(ds, point.dim, "stack")
    v = point.matrix
    wresid = _loss_terms(v, kets, mops, y, gamma, weights)[3]
    return _gradient(v, kets, mops, wresid, gamma)


def _project(v, z):
    a = v.conj().T @ z
    return z - v @ ((a + a.conj().T) / 2)


def tangent_project(point, direction):
    """Project onto the Stiefel tangent space at the point's stack."""
    v = point.matrix if isinstance(point, IsometryPoint) else point
    z = np.asarray(direction, dtype=complex)
    if z.shape != v.shape:
        raise DimensionMismatchError(
            f"direction shape {z.shape} does not match stack shape {v.shape}"
        )
    return _project(v, z)


def _polar(w):
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise RetractionError(
            f"rank-deficient stack: smallest singular value {s[-1]:.2e}"
        )
    return u @ vh


def _retraction_along(v, xi):
    """t -> polar factor of v - t xi, for a tangent xi at the isometry v.

    Closed form (v - t xi)(I + t^2 xi^dag xi)^(-1/2) through one eigh of
    xi^dag xi; each t then costs one (r*d) x d by d x d product.
    """
    lam, q = np.linalg.eigh(xi.conj().T @ xi)
    vq, xq, qh = v @ q, xi @ q, q.conj().T
    return lambda t: ((vq - t * xq) / np.sqrt(1.0 + t * t * lam)) @ qh


def retract(matrix):
    """Nearest isometry V (V^dag V)^(-1/2) via the polar decomposition."""
    w = np.asarray(matrix, dtype=complex)
    if w.ndim != 2 or w.shape[1] < 1 or w.shape[0] % w.shape[1] != 0:
        raise DimensionMismatchError(
            f"stack shape {w.shape} is not (r*d, d) for integer r"
        )
    return IsometryPoint(_polar(w))


def initial_point(cfg):
    """Seeded starting stack for the configured init mode."""
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.rank * cfg.dim, cfg.dim)
    if cfg.init == "identity-perturbed":
        v = np.zeros(shape, dtype=complex)
        v[: cfg.dim] = np.eye(cfg.dim)
        v += 1e-2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    else:
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return IsometryPoint(_polar(v))


def reconstruct(ds, cfg):
    """Learn a rank-cfg.rank Kraus set from a Wigner dataset.

    Minimises the loss that ``loss`` reports (variance-weighted residuals
    for a shot-noise dataset, see the module docstring) by projected
    gradient descent on the stacked-isometry manifold with
    monotone Armijo backtracking.  The next iteration's first trial is the
    accepted step, grown by 1/ARMIJO_FACTOR once GROW_AFTER iterations in
    a row have accepted their first trial.  Every trial point is the
    closed-form polar retraction of the tangent step, from one d x d
    ``eigh`` per iteration, and each accepted point takes one Newton-Schulz
    step back to an exact isometry, so the report's loss is, to rounding,
    that of the returned set.  ``report.stop_reason`` says why the fit
    stopped: "grad_tol" (the projected gradient norm fell to cfg.grad_tol,
    the only case with converged=True), "line_search_floor" (no trial step
    above ``MIN_STEP`` decreased the loss) or "max_iters" (cfg.max_iters
    steps were accepted).

    Returns (KrausSet, LossReport).  The returned set is re-certified CPTP;
    NotAChannelError if that fails is a hard error.
    """
    kets, mops, y, weights = _objective(ds, cfg.dim, "config")

    v = initial_point(cfg).matrix
    l2, l1, total, wresid = _loss_terms(v, kets, mops, y, cfg.gamma, weights)
    history = [total]
    step = cfg.step_size
    accepted_first = 0  # iterations in a row whose first trial was accepted
    stop_reason = "max_iters"

    # one pass more than max_iters, to report the gradient at the last point
    for it in range(cfg.max_iters + 1):
        xi = _project(v, _gradient(v, kets, mops, wresid, cfg.gamma))
        grad_norm = float(np.linalg.norm(xi))
        if grad_norm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break
        if it == cfg.max_iters:
            break
        # Armijo backtracking along -xi; slope of L at t=0 is -2||xi||^2
        decrease_rate = 2.0 * grad_norm**2
        along = _retraction_along(v, xi)
        t = step
        while t > MIN_STEP:
            v_new = along(t)
            l2_new, l1_new, total_new, wresid_new = _loss_terms(
                v_new, kets, mops, y, cfg.gamma, weights
            )
            if total_new <= total - ARMIJO_SLOPE * t * decrease_rate:
                break
            t *= ARMIJO_FACTOR
        else:
            # no monotone progress above the step floor
            stop_reason = "line_search_floor"
            break
        # one Newton-Schulz step x (3I - x^dag x) / 2 squares the isometry
        # defect, which the closed form would grow; its loss moves by rounding
        v = 1.5 * v_new - 0.5 * (v_new @ (v_new.conj().T @ v_new))
        l2, l1, total, wresid = l2_new, l1_new, total_new, wresid_new
        history.append(total)
        # carry the accepted step over; grow it after a run of first trials
        accepted_first = accepted_first + 1 if t == step else 0
        step = t
        if accepted_first == GROW_AFTER:
            step, accepted_first = t / ARMIJO_FACTOR, 0

    point = retract(v)
    ks = require_certified(KrausSet(point.kraus()))
    report = LossReport(
        l2=l2, l1=l1, total=total, grad_norm=grad_norm,
        iters_used=len(history) - 1, history=tuple(history),
        converged=stop_reason == "grad_tol", stop_reason=stop_reason,
    )
    return ks, report


def config_to_json(cfg):
    return {
        "rank": cfg.rank, "dim": cfg.dim, "gamma": cfg.gamma,
        "max_iters": cfg.max_iters, "step_size": cfg.step_size,
        "grad_tol": cfg.grad_tol, "seed": cfg.seed, "init": cfg.init,
    }


def config_from_json(data):
    try:
        return ReconstructionConfig(**data)
    except TypeError as exc:
        raise ValidationError(f"malformed config JSON: {exc}") from exc


def result_to_json(ks, report, cfg):
    return {
        "schema": RESULT_SCHEMA,
        "config": config_to_json(cfg),
        "kraus": kraus_to_json(ks),
        "loss": {
            "l2": report.l2, "l1": report.l1, "total": report.total,
            "grad_norm": report.grad_norm, "iters_used": report.iters_used,
            "converged": report.converged, "stop_reason": report.stop_reason,
        },
        "history": list(report.history),
    }


def result_from_json(data):
    try:
        if data["schema"] != RESULT_SCHEMA:
            raise ValidationError(f"unknown result schema {data['schema']!r}")
        ks = kraus_from_json(data["kraus"])
        cfg = config_from_json(data["config"])
        lo = data["loss"]
        report = LossReport(
            l2=float(lo["l2"]), l1=float(lo["l1"]), total=float(lo["total"]),
            grad_norm=float(lo["grad_norm"]),
            iters_used=int(lo["iters_used"]),
            history=tuple(float(t) for t in data["history"]),
            converged=bool(lo["converged"]),
            stop_reason=lo.get("stop_reason"),  # absent from older v1 files
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed result JSON: {exc}") from exc
    return ks, report, cfg


def save_result(ks, report, cfg, path):
    with open(path, "w") as fh:
        json.dump(result_to_json(ks, report, cfg), fh, indent=2)
        fh.write("\n")


def load_result(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read result {path}: {exc}") from exc
    return result_from_json(data)
