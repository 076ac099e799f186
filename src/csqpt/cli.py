"""Command-line front end for the coherent-state tomography pipeline.

Subcommands cover the whole workflow: ``simulate`` writes Wigner datasets,
``reconstruct`` fits Kraus operators to a dataset, ``analyze`` emits
transfer matrices and fidelity reports, ``budget`` attributes infidelity
to decoherence mechanisms, and ``decode-study`` compares the decoded
against the direct logical Pauli transfer matrix.

Conventions shared by all subcommands:

- settings resolve as flags over ``--config`` JSON file over built-in
  defaults, and every run prints the resolved configuration and seed
  before doing any work; identical resolved configurations produce
  identical output files;
- structured artifacts are JSON carrying a ``schema`` field, matrices
  are CSV with labeled headers;
- a gate is specified as the builtin name ``x-gate``, a path to a gate
  sequence JSON file ({"steps": [...]}), or a path to a Kraus JSON file;
- exit codes: 0 success (warnings included), 2 usage, 3 unreadable or
  invalid data, 4 numerical failure.

The environment variable ``CSQPT_THREADS`` caps the BLAS thread count.
It takes effect when the package is imported before numpy, which is
always the case for console-script or ``python -m csqpt`` invocations.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import basis as basis_mod
from . import gates, metrics, reconstruct, tomography
from .channel import DecoherenceParams, kraus_from_json, unitary_channel
from .errors import (
    CsqptError,
    NotAChannelError,
    NumericalConsistencyError,
    RetractionError,
    ValidationError,
)

USAGE_EXIT = 2
DATA_EXIT = 3
NUMERIC_EXIT = 4

EMIT_CHOICES = ("gtm", "ptm", "poptm", "fidelity", "sweep")
SWEEP_CUTS = tuple(range(2, 11))

SIMULATE_DEFAULTS = {
    "gate": "x-gate",
    "dim": 32,
    "shots": 0,
    "seed": 0,
    "probe_grid": "5,1.5",
    "wigner_grid": "21,2.62",
    "noise": None,
    "out": "dataset.json",
}
# init, step_size and grad_tol have no dedicated flags but may be set
# through the --config file; they mirror ReconstructionConfig fields.
RECONSTRUCT_DEFAULTS = {
    "data": None,
    "rank": 4,
    "dim": 32,
    "gamma": 4e-4,
    "iters": 2000,
    "seed": 0,
    "init": "identity-perturbed",
    "step_size": 0.1,
    "grad_tol": 1e-6,
    "out": "result.json",
}
ANALYZE_DEFAULTS = {
    "result": None,
    "target": "x-gate",
    "emit": None,
    "out_dir": ".",
}
BUDGET_DEFAULTS = {
    "dim": 32,
    "noise": "315,478",
    "out": "budget.csv",
}
DECODE_DEFAULTS = {
    "gate": "x-gate",
    "dim": 32,
    "noise": None,
    "out_dir": ".",
}


def _resolve(args, defaults):
    """Merge flag values over --config file values over defaults."""
    from_file = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(from_file) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        resolved[key] = flag if flag is not None else from_file.get(key, default)
    return resolved


def _print_header(command, resolved):
    print(f"command: {command}")
    print("config:", json.dumps(resolved, sort_keys=True))
    seed = resolved.get("seed", "none")
    print(f"seed: {seed}")


def _parse_grid(value, what):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        parts = value
    else:
        parts = str(value).split(",")
    if len(parts) != 2:
        raise ValidationError(f"{what} must be 'n,extent', got {value!r}")
    try:
        return int(parts[0]), float(parts[1])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} {value!r}: {exc}") from exc


def _parse_noise(value):
    """'T1,T2' (microseconds; inf allowed) -> DecoherenceParams or None."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)) and len(value) == 2:
        parts = value
    else:
        parts = str(value).split(",")
    if len(parts) != 2:
        raise ValidationError(f"noise must be 'T1,T2', got {value!r}")
    try:
        t1, t2 = float(parts[0]), float(parts[1])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad noise spec {value!r}: {exc}") from exc
    return DecoherenceParams(t1=t1, t2=t2)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _gate_channel(spec, dim, noise=None):
    """Resolve a gate spec to a SequenceChannel or (Kraus files) a KrausSet."""
    if spec == "x-gate":
        return gates.SequenceChannel(gates.x_gate_sequence(), noise, dim)
    data = _read_json(spec)
    if "steps" in data:
        return gates.SequenceChannel(gates.sequence_from_json(data), noise, dim)
    if "operators" in data:
        if noise is not None:
            raise ValidationError(
                "noise needs a gate sequence; Kraus files carry no step durations"
            )
        ks = kraus_from_json(data)
        if ks.dim != dim:
            raise ValidationError(f"Kraus file dim {ks.dim} does not match dim {dim}")
        return ks
    raise ValidationError(f"{spec}: neither a sequence nor a Kraus JSON file")


def _resolve_target(spec, code):
    """Target spec -> (logical partial isometry, full-space unitary).

    The first factor feeds the fidelity report (target action confined to
    the code space), the second the truncation sweep reference channel.
    """
    if spec == "x-gate":
        return gates.ideal_logical_x(code), gates.ideal_logical_x_unitary(code)
    data = _read_json(spec)
    if "steps" in data:
        u = gates.compose_unitary(gates.sequence_from_json(data), code.dim)
    elif "operators" in data:
        ks = kraus_from_json(data)
        if ks.rank != 1:
            raise ValidationError("target Kraus file must have rank 1 (a unitary)")
        u = ks.operators[0]
        if u.shape[0] != code.dim:
            raise ValidationError(f"target dim {u.shape[0]} does not match {code.dim}")
        defect = np.linalg.norm(u.conj().T @ u - np.eye(code.dim))
        if defect > 1e-8:
            raise ValidationError(f"target operator is not unitary (defect {defect:.2e})")
    else:
        raise ValidationError(f"{spec}: neither a sequence nor a Kraus JSON file")
    p = code.projector()
    return p @ u @ p, u


def cmd_simulate(args):
    cfg = _resolve(args, SIMULATE_DEFAULTS)
    _print_header("simulate", cfg)
    probes = tomography.probe_grid(*_parse_grid(cfg["probe_grid"], "probe grid"))
    grid = tomography.wigner_grid(*_parse_grid(cfg["wigner_grid"], "wigner grid"))
    channel = _gate_channel(cfg["gate"], int(cfg["dim"]), _parse_noise(cfg["noise"]))
    ds = tomography.simulate_dataset(
        channel, probes, grid, shots=int(cfg["shots"]), seed=int(cfg["seed"])
    )
    tomography.save_dataset(ds, cfg["out"])
    print(
        f"wrote {cfg['out']}: n_probes={ds.probes.size} n_betas={ds.betas.size}"
        f" mean|W|={float(np.abs(ds.values).mean()):.6f}"
    )
    return 0


def cmd_reconstruct(args):
    cfg = _resolve(args, RECONSTRUCT_DEFAULTS)
    _print_header("reconstruct", cfg)
    ds = tomography.load_dataset(cfg["data"])
    rcfg = reconstruct.ReconstructionConfig(
        rank=int(cfg["rank"]),
        dim=int(cfg["dim"]),
        gamma=float(cfg["gamma"]),
        max_iters=int(cfg["iters"]),
        step_size=float(cfg["step_size"]),
        grad_tol=float(cfg["grad_tol"]),
        seed=int(cfg["seed"]),
        init=cfg["init"],
    )
    ks, report = reconstruct.reconstruct(ds, rcfg)
    reconstruct.save_result(ks, report, rcfg, cfg["out"])
    print(
        f"wrote {cfg['out']}: iters={report.iters_used} l2={report.l2:.3e}"
        f" total={report.total:.3e} grad_norm={report.grad_norm:.3e}"
    )
    if not report.converged:
        why = {
            "max_iters": f"reached the cap of {rcfg.max_iters} iterations",
            "line_search_floor": (
                f"line search hit the step floor after {report.iters_used}"
                " iterations"
            ),
        }[report.stop_reason]
        print(
            f"warning: no convergence: {why}"
            f" (grad_norm {report.grad_norm:.3e} > {rcfg.grad_tol:.1e})",
            file=sys.stderr,
        )
    return 0


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_analyze(args):
    cfg = _resolve(args, ANALYZE_DEFAULTS)
    _print_header("analyze", cfg)
    emits = tuple(cfg["emit"] or EMIT_CHOICES)
    unknown = sorted(set(emits) - set(EMIT_CHOICES))
    if unknown:
        raise ValidationError(f"unknown emit kinds {unknown}")
    ks, report, rcfg = reconstruct.load_result(cfg["result"])
    code = gates.BinomialCode(ks.dim)
    target_logical, target_full = _resolve_target(cfg["target"], code)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    if "gtm" in emits:
        gm = basis_mod.gellmann_set(basis_mod.logical_ordered_basis(code))
        rows = basis_mod.display_indices(gm)
        tm = basis_mod.transfer_matrix(ks, gm, rows=rows)
        _write_text(os.path.join(out_dir, "gtm.csv"), tm.to_csv())
    if "ptm" in emits:
        tm = basis_mod.logical_ptm(ks, code)
        _write_text(os.path.join(out_dir, "ptm.csv"), tm.to_csv())
    if "poptm" in emits:
        tm = basis_mod.population_transfer_matrix(
            ks, basis_mod.logical_ordered_basis(code)
        )
        _write_text(os.path.join(out_dir, "poptm.csv"), tm.to_csv())
    if "fidelity" in emits:
        fid = metrics.avg_gate_fidelity(ks, target_logical, code)
        payload = metrics.fidelity_report_to_json(fid)
        _write_text(
            os.path.join(out_dir, "fidelity.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        print(f"f_avg={fid.f_avg:.6f} f_pro={fid.f_pro:.6f} leakage={fid.leakage:.6f}")
    if "sweep" in emits:
        cuts = [c for c in SWEEP_CUTS if c < ks.dim]
        table = metrics.truncation_sweep(ks, unitary_channel(target_full), cuts)
        lines = ["cut,f_pro"] + [f"{cut},{repr(float(f))}" for cut, f in table]
        _write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_budget(args):
    cfg = _resolve(args, BUDGET_DEFAULTS)
    _print_header("budget", cfg)
    params = _parse_noise(cfg["noise"])
    if params is None:
        raise ValidationError("budget requires --noise T1,T2 (inf,inf allowed)")
    code = gates.BinomialCode(int(cfg["dim"]))
    budget = metrics.error_budget(gates.x_gate_sequence(), params, code)
    lines = ["channel,contribution"]
    lines += [f"{label},{repr(float(x))}" for label, x in budget.contributions]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(f"baseline infidelity: {budget.baseline:.6f}")
    if budget.clipped:
        print(f"clipped to zero: {', '.join(budget.clipped)}")
    return 0


def cmd_decode_study(args):
    cfg = _resolve(args, DECODE_DEFAULTS)
    _print_header("decode-study", cfg)
    dim = int(cfg["dim"])
    channel = _gate_channel(cfg["gate"], dim, _parse_noise(cfg["noise"]))
    code = gates.BinomialCode(dim)
    decoded, direct = metrics.decoder_study(channel, code)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "decoded_ptm.csv"), decoded.to_csv())
    _write_text(os.path.join(out_dir, "direct_ptm.csv"), direct.to_csv())
    deficit = 1.0 - float(direct.elements[0, 0])
    print(f"decoded trace row: {[round(float(x), 6) for x in decoded.elements[0]]}")
    print(f"direct trace-block deficit: {deficit:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csqpt",
        description="Coherent-state process tomography of bosonic logical gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate a Wigner tomography dataset")
    sp.add_argument("--config", help="JSON file with defaults; flags override")
    sp.add_argument("--gate", help="x-gate | sequence JSON | Kraus JSON (default x-gate)")
    sp.add_argument("--dim", type=int, help="Fock truncation (default 32)")
    sp.add_argument("--shots", type=int, help="shots per Wigner point; 0 = exact (default 0)")
    sp.add_argument("--seed", type=int, help="shot-noise seed (default 0)")
    sp.add_argument("--probe-grid", dest="probe_grid", help="n,alpha_max (default 5,1.5)")
    sp.add_argument("--wigner-grid", dest="wigner_grid", help="n,beta_max (default 21,2.62)")
    sp.add_argument("--noise", help="T1,T2 in microseconds; inf allowed")
    sp.add_argument("--out", help="output dataset path (default dataset.json)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("reconstruct", help="fit Kraus operators to a dataset")
    sp.add_argument("--config", help="JSON file with defaults; flags override")
    sp.add_argument("--data", required=True, help="dataset JSON path")
    sp.add_argument("--rank", type=int, help="number of Kraus operators (default 4)")
    sp.add_argument("--dim", type=int, help="Fock truncation (default 32)")
    sp.add_argument("--gamma", type=float, help="L1 weight (default 4e-4)")
    sp.add_argument("--iters", type=int, help="iteration cap (default 2000)")
    sp.add_argument("--seed", type=int, help="init seed (default 0)")
    sp.add_argument("--out", help="output result path (default result.json)")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("analyze", help="transfer matrices, fidelity, truncation sweep")
    sp.add_argument("--config", help="JSON file with defaults; flags override")
    sp.add_argument("--result", required=True, help="result JSON path")
    sp.add_argument("--target", help="target gate spec (default x-gate)")
    sp.add_argument(
        "--emit",
        action="append",
        choices=EMIT_CHOICES,
        help="artifact to emit; repeatable (default: all)",
    )
    sp.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("budget", help="decoherence error budget of the composed gate")
    sp.add_argument("--config", help="JSON file with defaults; flags override")
    sp.add_argument("--dim", type=int, help="Fock truncation (default 32)")
    sp.add_argument("--noise", help="T1,T2 in microseconds (default 315,478)")
    sp.add_argument("--out", help="output CSV path (default budget.csv)")
    sp.set_defaults(func=cmd_budget)

    sp = sub.add_parser(
        "decode-study", help="decoded vs direct logical Pauli transfer matrix"
    )
    sp.add_argument("--config", help="JSON file with defaults; flags override")
    sp.add_argument("--gate", help="x-gate | sequence JSON | Kraus JSON (default x-gate)")
    sp.add_argument("--dim", type=int, help="Fock truncation (default 32)")
    sp.add_argument("--noise", help="T1,T2 in microseconds")
    sp.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    sp.set_defaults(func=cmd_decode_study)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotAChannelError, NumericalConsistencyError, RetractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (CsqptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
