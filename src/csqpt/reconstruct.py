"""Kraus-operator learning from Wigner data on the CPTP manifold.

The channel is parametrized by the vertical stack V of its rank Kraus
operators, an (r*d) x d matrix.  Trace preservation is exactly the isometry
constraint V^dag V = I, so the feasible set is a complex Stiefel manifold
and the optimizer is Riemannian L-BFGS: Wirtinger gradient, tangent-space
projection, a limited-memory quasi-Newton direction, Armijo backtracking,
polar retraction.  The public helpers take V as an isometric KrausSet: one
whose stack ``KrausSet.matrix`` passes ``channel.require_isometry``.

Each trial point is the polar retraction of the tangent step, the polar
factor of V - t xi (Absil, Mahony & Sepulchre, Optimization Algorithms on
Matrix Manifolds, 2008), by Newton-Schulz sweeps X <- X (3I - X^dag X) / 2
(Higham, Functions of Matrices, 2008, ch. 8): GEMMs only, no ``eigh``.
They converge quadratically and end at an isometry to rounding whatever
defect V carried.  The start is the polar factor of a seeded stack by the
same sweeps, and the last accepted iterate is returned as it is, so a fit
makes no SVD.  The public ``retract`` takes arbitrary matrices and keeps
the SVD polar factor with its rank check.

The direction is H xi for the projected gradient xi, with H the L-BFGS
inverse-Hessian model of the last ``LBFGS_MEMORY`` pairs (s, y) by the
two-loop recursion, projected back onto the tangent space.  s = -t d is
the accepted step and y = xi_new - P_{v_new}(xi_old) the change of the
gradient, the old one moved to the new tangent space by projection (the
vector transport of Absil, Mahony & Sepulchre; Huang, Gallivan & Absil,
SIAM J. Optim. 25, 1660 (2015)).  A pair is kept only if it passes a
curvature test, and a direction only if it passes a descent-angle test,
which otherwise clears the memory: the L1 kinks can break both.  With no
pair the step is ``cfg.step_size`` times xi, so the first iteration is a
steepest-descent step.  The line search tries the unit step (the
memoryless ``cfg.step_size``) and shrinks it by ``ARMIJO_FACTOR`` until
the Armijo test passes, so almost every iteration costs one forward pass;
the loss history never rises.

A fit stops for one of ``STOP_REASONS``: the projected gradient norm fell
to ``grad_tol``, the line search found no decrease above the step floor
``MIN_STEP``, or ``max_iters`` steps were taken.

The loss is L = l2 + gamma * l1 with l2 the squared Wigner residual and l1
the sum of |Re| and |Im| over the stack.  For a shot-noise dataset
(``shots`` > 0) each squared residual is weighted by the inverse of that
point's binomial variance, estimated from the measured W (weighted least
squares); every point of an exact dataset weighs one.

Predictions come from ``tomography.ParityModel``, the forward model that
also simulates datasets: the probes' output states, packed into d^2 real
coordinates, times the cached packed parity operators of the grid's
mirror orbits {beta, -beta, conj beta, -conj beta} in four real block
GEMMs, whose sign combinations give every beta's column.  The l2
gradient applies the model's ``adjoint`` (N_i = sum_j r_ij M_j) to the
probe images K_k |alpha_i> in one batched product; in a fit those
images are the ones the accepted trial's forward pass formed.

Gradient convention: for a real loss L the array returned by
``euclidean_gradient`` is G = dL/d(conj V), so the derivative of L along a
perturbation dV is 2 Re<G, dV>.  Finite differences per real coordinate
therefore recover 2*Re(G) and 2*Im(G).
"""

import json
import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .channel import KrausSet, kraus_from_json, kraus_to_json, require_isometry
from .errors import (DimensionMismatchError, NotAChannelError, RetractionError,
                     ValidationError, read_bool, read_instance, read_int, read_json,
                     read_numbers, read_real)
from .fock import MAX_DIM
from .tomography import TomographyDataset, _images, parity_model, probe_kets

RESULT_SCHEMA = "csqpt-result-v1"

INIT_MODES = ("identity-perturbed", "random-isometry")

# the most Kraus operators a fit takes: see tomography.MAX_GRID
MAX_RANK = 2**24

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
MIN_STEP = 1e-14
# a Newton-Schulz retraction ends with the sweep whose Gram X^dag X was
# within this of I entrywise, and refuses input that needs more sweeps
NS_TOL = 1e-8
NS_MAX_SWEEPS = 100
# (s, y) pairs the L-BFGS direction remembers
LBFGS_MEMORY = 5
# a pair (s, y) is kept only if cos(s, y) exceeds this (the curvature
# test), a direction d only if cos(xi, d) does (the descent-angle test)
MIN_COSINE = 1e-4

# why a fit stopped, each with the phrase that says so, {iters} being the
# report's iters_used; only "grad_tol" counts as converged
STOP_REASONS = {
    "grad_tol": "the gradient norm fell to grad_tol after {iters} iterations",
    "line_search_floor": "line search hit the step floor after {iters} iterations",
    "max_iters": "reached the cap of {iters} iterations",
}


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
        for name, low, high in (("rank", 1, MAX_RANK), ("dim", 2, MAX_DIM),
                                ("max_iters", 0, None), ("seed", 0, None)):
            object.__setattr__(
                self, name, read_int(getattr(self, name), name, low, high=high))
        for name, low in (("gamma", 0), ("step_size", None), ("grad_tol", 0)):
            object.__setattr__(self, name, read_real(getattr(self, name), name, low))
        if self.step_size <= 0:
            raise ValidationError("step_size must be positive")
        if self.init not in INIT_MODES:
            raise ValidationError(f"init must be one of {INIT_MODES}")


@dataclass(frozen=True)
class LossReport:
    """A Kraus set's losses: ``history`` holds the total loss at the start and
    after each accepted step; ``stop_reason`` is None without a fit."""

    l2: float
    l1: float
    grad_norm: float
    history: tuple
    stop_reason: str = None

    def __post_init__(self):
        for name in ("l2", "l1", "grad_norm"):
            object.__setattr__(
                self, name, read_real(getattr(self, name), f"loss {name}"))
        history = read_numbers(self.history, "history", shape=(None,))
        if not history.size:
            raise ValidationError("history must hold at least one loss")
        object.__setattr__(self, "history", tuple(history.tolist()))
        reason = self.stop_reason
        if not (reason is None or isinstance(reason, str) and reason in STOP_REASONS):
            raise ValidationError(f"stop_reason must be one of {tuple(STOP_REASONS)} "
                                  f"or None, not {reason!r}")

    total = property(lambda self: self.history[-1])
    iters_used = property(lambda self: len(self.history) - 1)
    converged = property(lambda self: self.stop_reason == "grad_tol")


def stack_kraus(operators):
    """The KrausSet of (rank, dim, dim) operators; see ``require_isometry``."""
    return require_isometry(KrausSet(operators))


def predict_wigner(ks, probes, grid):
    """Wigner predictions of an isometric KrausSet, e.g. a fit result or a truth.

    ``ParityModel.image_wigner`` of the probe images K_k |alpha_i>, formed
    in one batched product: ``ParityModel.expect``, which
    ``simulate_dataset`` also calls, packs the output states rho_i into d^2
    real coordinates that meet the packed parity operators of the grid's
    orbits in four real block GEMMs.  ``probes`` and ``grid`` are a
    ProbeGrid and WignerGrid or their flat amplitude arrays.  Probe kets
    and parity operators are built once per (grid, dim) and cached.
    """
    require_isometry(ks)
    kets = probe_kets(getattr(probes, "alphas", probes), ks.dim)
    model = parity_model(getattr(grid, "betas", grid), ks.dim)
    return model.image_wigner(_images(ks.operators, kets))


def _residual_weights(ds):
    """Inverse-variance weights, normalised to mean 1; all ones for exact data.

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
        return np.ones_like(ds.values)
    var = np.maximum(1.0 - (ds.values * (np.pi / 2)) ** 2, 4.0 / ds.shots)
    w = 1.0 / var
    return w / w.mean()


class _Objective:
    """The loss L = l2 + gamma * l1 of a dataset at one fit dim: what ``loss``,
    ``euclidean_gradient`` and ``reconstruct`` minimise, refusing a dataset
    of another dim by ``what`` ("stack" or "config").  It owns the probe
    kets, the cached parity model, the data, their ``_residual_weights``,
    gamma and a ``ParityModel.workspace``, so the cached model is only read."""

    def __init__(self, ds, dim, gamma, what):
        if read_instance(ds, TomographyDataset, "ds").dim != dim:
            raise DimensionMismatchError(
                f"dataset dim {ds.dim} does not match {what} dim {dim}")
        self.kets, self.model = probe_kets(ds.probes, dim), parity_model(ds.betas, dim)
        self.y, self.weights = ds.values, _residual_weights(ds)
        self.gamma = read_real(gamma, "gamma", 0)
        self.work = self.model.workspace(len(self.kets))

    def terms(self, v):
        """(l2, l1, total, wresid, images) with l2 = sum w r^2 and wresid = w r:
        ``gradient`` takes ``wresid`` and the probe images K_k |alpha_i>."""
        images = _images(v, self.kets)
        resid = self.model.image_wigner(images, self.work) - self.y
        wresid = self.weights * resid
        l2, l1 = float((resid * wresid).sum()), float(np.abs(v.view(float)).sum())
        return l2, l1, l2 + self.gamma * l1, wresid, images

    def gradient(self, v, wresid, images):
        """Wirtinger gradient of the total loss at v from ``terms(v)``: row
        block k of 2 sum_i N_i K_k |alpha_i><alpha_i|, N_i the model's
        ``adjoint`` of wresid, plus gamma/2 (sign Re + i sign Im), 0 at 0:
        twice d(|Re z| + |Im z|)/d(conj z)."""
        n = self.model.adjoint(wresid, self.work)
        # row k of nk[i] is (N_i K_k |alpha_i>)^T
        nk = images @ n.swapaxes(1, 2)
        g = 2.0 * (nk.reshape(len(self.kets), -1).T @ self.kets.conj())
        if self.gamma > 0:
            g += (0.5 * self.gamma) * np.sign(v.view(float)).view(complex)
        return g


def loss(ks, ds, gamma):
    """LossReport of an isometric KrausSet against a dataset (no optimization).

    ``l2`` is the residual term ``reconstruct`` minimises: variance-weighted
    for a shot-noise dataset, the plain sum of squares for exact data.
    ``grad_norm`` is the projected gradient norm, as a fit reports it.
    """
    objective = _Objective(ds, require_isometry(ks).dim, gamma, "stack")
    v = ks.matrix
    l2, l1, total, wresid, images = objective.terms(v)
    xi = _project(v, objective.gradient(v, wresid, images))
    return LossReport(l2, l1, math.sqrt(_inner(xi, xi)), (total,))


def euclidean_gradient(ks, ds, gamma):
    """Wirtinger gradient with respect to conj(V) of the loss ``loss`` reports.

    For a shot-noise dataset the residuals are variance-weighted, as in
    ``reconstruct``.
    """
    objective = _Objective(ds, require_isometry(ks).dim, gamma, "stack")
    return objective.gradient(ks.matrix, *objective.terms(ks.matrix)[3:])


def _project(v, z):
    a = v.conj().T @ z
    return z - v @ ((a + a.conj().T) / 2)


def _inner(a, b):
    """The real inner product Re <a, b> = Re tr(a^dag b) of tangent vectors."""
    return float(np.vdot(a, b).real)


def _lbfgs_pair(s, y):
    """(s, y, <s, y>) for the L-BFGS memory, or None when cos(s, y) is at
    most ``MIN_COSINE``: a non-convex stretch or a kink of the L1 term can
    make <s, y> small or negative, and such a pair would spoil the
    positive-definite model."""
    sy = _inner(s, y)
    if sy <= MIN_COSINE * math.sqrt(_inner(s, s) * _inner(y, y)):
        return None
    return s, y, sy


def _two_loop(xi, pairs):
    """H xi for the L-BFGS inverse-Hessian model of ``pairs``, oldest first,
    of (s, y, <s, y>), by the two-loop recursion with the initial scaling
    <s, y> / <y, y> of the newest pair (Nocedal & Wright, Numerical
    Optimization, 2006, Algorithm 7.4)."""
    q = xi.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(_inner(s, q) / sy)
        q -= alphas[-1] * y
    _, y, sy = pairs[-1]
    q *= sy / _inner(y, y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += (a - _inner(y, q) / sy) * s
    return q


def _polar(w):
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise RetractionError(
            f"rank-deficient stack: smallest singular value {s[-1]:.2e}"
        )
    return u @ vh


def _newton_schulz(x):
    """Polar factor of x, whose singular values must lie in (0, sqrt 3),
    the sweeps' region of convergence.

    A sweep x <- x S, S = (3I - G) / 2, maps the Gram G = x^dag x to S G S,
    so the sweeps run on d x d matrices and x is multiplied once by their
    product.  They stop after the sweep whose Gram was within ``NS_TOL`` of
    I; RetractionError after ``NS_MAX_SWEEPS``, which only non-finite or
    rank-deficient input reaches.  The Gram squares x's condition number,
    so the result's isometry defect grows as its square (about 2e-9 at
    condition 1e4, where ``require_isometry`` still accepts it).
    """
    eye = np.eye(x.shape[1])
    gram = x.conj().T @ x
    product = eye
    for _ in range(NS_MAX_SWEEPS):
        done = np.abs(gram - eye).max() < NS_TOL
        sweep = 1.5 * eye - 0.5 * gram
        product = product @ sweep
        if done:
            return x @ product
        gram = sweep @ gram @ sweep
    raise RetractionError(
        f"Newton-Schulz polar sweeps did not converge in {NS_MAX_SWEEPS} sweeps"
    )


def _retraction_along(v, xi):
    """t -> polar factor of v - t xi, for a tangent xi at the isometry v.

    v^dag xi is skew-Hermitian, so the squared singular values of v - t xi
    are 1 + t^2 lam <= 1 + s, for the eigenvalues lam of xi^dag xi and
    s = t^2 ||xi||_F^2.  For s >= 2 the start is scaled by sqrt(2 / (1 + s))
    into the sweeps' region of convergence, singular values in (0, sqrt 3),
    before ``_newton_schulz``.
    """
    xi_sq = _inner(xi, xi)

    def at(t):
        x = v - t * xi
        s = t * t * xi_sq
        if s >= 2.0:
            x *= math.sqrt(2.0 / (1.0 + s))
        return _newton_schulz(x)

    return at


def _kraus_set(v, error=ValidationError):
    """The KrausSet whose stack is the isometry v, else ``error``."""
    return require_isometry(KrausSet(v.reshape(-1, v.shape[1], v.shape[1])), error)


def retract(matrix):
    """KrausSet of the nearest isometry V (V^dag V)^(-1/2), the polar factor."""
    w = read_numbers(matrix, "stack", complex, RetractionError)
    if w.ndim != 2 or w.shape[1] < 1 or w.shape[0] % w.shape[1] != 0:
        raise DimensionMismatchError(
            f"stack shape {w.shape} is not (r*d, d) for integer r"
        )
    return _kraus_set(_polar(w))


def initial_point(cfg):
    """Seeded starting stack for the configured init mode: the polar factor
    of the seeded start by Newton-Schulz sweeps, after dividing the start
    by its Frobenius norm, which bounds its singular values by 1.  The
    sweeps square its condition number: on a result that
    ``require_isometry`` refuses they run once more."""
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.rank * cfg.dim, cfg.dim)
    if cfg.init == "identity-perturbed":
        v = np.zeros(shape, dtype=complex)
        v[: cfg.dim] = np.eye(cfg.dim)
        v += 1e-2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    else:
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = _newton_schulz(v / np.linalg.norm(v))
    try:
        return _kraus_set(x)
    except ValidationError:
        return _kraus_set(_newton_schulz(x))


def reconstruct(ds, cfg):
    """Learn a rank-cfg.rank Kraus set from a Wigner dataset.

    Minimises the loss that ``loss`` reports (variance-weighted residuals
    for a shot-noise dataset, see the module docstring) on the
    stacked-isometry manifold along Riemannian L-BFGS directions, with
    monotone Armijo backtracking from the unit step.  With no (s, y) pair
    in memory (at the first iteration, and after a rejected direction has
    cleared it, until a new pair passes the curvature test) the step is
    cfg.step_size times the projected gradient.  The start is
    ``initial_point(cfg)`` and every trial point the polar retraction of
    the tangent step, both by Newton-Schulz sweeps, GEMMs only, which end
    at an isometry to rounding.  The last accepted iterate is returned as
    it is, so the report's loss is exactly that of the returned set.
    ``report.stop_reason`` says why the fit stopped: "grad_tol" (the
    projected gradient norm fell to cfg.grad_tol, the only case with
    converged=True), "line_search_floor" (no trial step above ``MIN_STEP``
    decreased the loss) or "max_iters" (cfg.max_iters steps were accepted).

    Returns (KrausSet, LossReport).  The returned set passes
    ``require_isometry``; NotAChannelError if it does not is a hard error.
    """
    read_instance(cfg, ReconstructionConfig, "cfg")
    objective = _Objective(ds, cfg.dim, cfg.gamma, "config")
    v = initial_point(cfg).matrix
    l2, l1, total, wresid, images = objective.terms(v)
    history = [total]
    pairs = deque(maxlen=LBFGS_MEMORY)
    stop_reason = "max_iters"

    # one pass more than max_iters, to report the gradient at the last point
    for it in range(cfg.max_iters + 1):
        g = objective.gradient(v, wresid, images)
        xi = _project(v, g)
        grad_norm = math.sqrt(_inner(xi, xi))
        if grad_norm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break
        if it == cfg.max_iters:
            break
        if it > 0:
            # the accepted step and the gradient change, the old gradient
            # moved to the new tangent space by projection
            pair = _lbfgs_pair(-t * d, xi - _project(v, xi_old))
            if pair is not None:
                pairs.append(pair)
        # the quasi-Newton direction, or the memoryless step_size * xi
        d, t = xi, cfg.step_size
        if pairs:
            hd = _project(v, _two_loop(xi, pairs))
            if _inner(xi, hd) > MIN_COSINE * grad_norm * math.sqrt(_inner(hd, hd)):
                d, t = hd, 1.0
            else:
                pairs.clear()
        # Armijo backtracking along -d; slope of L at t=0 is -2 Re<xi, d>
        decrease_rate = 2.0 * _inner(xi, d)
        along = _retraction_along(v, d)
        while t > MIN_STEP:
            v_new = along(t)
            trial = objective.terms(v_new)
            if trial[2] <= total - ARMIJO_SLOPE * t * decrease_rate:
                break
            t *= ARMIJO_FACTOR
        else:
            # no monotone progress above the step floor
            stop_reason = "line_search_floor"
            break
        v = v_new
        l2, l1, total, wresid, images = trial
        history.append(total)
        xi_old = xi

    ks = _kraus_set(v, NotAChannelError)
    return ks, LossReport(l2, l1, grad_norm, history, stop_reason)


def _read_fit(ks, cfg):
    """Refuse a Kraus set and config that no fit gives: a fit builds its
    stack at the config's rank and dim."""
    read_instance(ks, KrausSet, "ks")
    read_instance(cfg, ReconstructionConfig, "cfg")
    if (cfg.rank, cfg.dim) != (ks.rank, ks.dim):
        raise ValidationError(f"config rank {cfg.rank}, dim {cfg.dim} does not match "
                              f"the Kraus block's rank {ks.rank}, dim {ks.dim}")


def result_to_json(ks, report, cfg):
    _read_fit(ks, cfg)
    read_instance(report, LossReport, "report")
    return {
        "schema": RESULT_SCHEMA,
        "config": asdict(cfg),
        "kraus": kraus_to_json(ks),
        "loss": {key: getattr(report, key) for key in (
            "l2", "l1", "total", "grad_norm", "iters_used", "converged",
            "stop_reason")},
        "history": list(report.history),
    }


def result_from_json(data):
    try:
        if data["schema"] != RESULT_SCHEMA:
            raise ValidationError(f"unknown result schema {data['schema']!r}")
        ks = kraus_from_json(data["kraus"])
        cfg = ReconstructionConfig(**data["config"])
        lo = data["loss"]
        recorded = {"total": read_real(lo["total"], "loss total"),
                    "iters_used": read_int(lo["iters_used"], "loss iters_used", 0),
                    "converged": read_bool(lo["converged"], "loss converged")}
        # an older v1 file has no stop_reason: its converged stands for one
        reason = lo.get("stop_reason", "grad_tol" if recorded["converged"] else None)
        report = LossReport(lo["l2"], lo["l1"], lo["grad_norm"], data["history"],
                            reason)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed result JSON: {exc}") from exc
    for key, value in recorded.items():
        if value != getattr(report, key):
            raise ValidationError(f"loss {key} {value!r} does not match a history of "
                                  f"{len(report.history)} losses and stop_reason "
                                  f"{reason!r}")
    _read_fit(ks, cfg)
    return ks, report, cfg


def save_result(ks, report, cfg, path):
    text = json.dumps(result_to_json(ks, report, cfg)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_result(path):
    return result_from_json(read_json(path, "result"))
