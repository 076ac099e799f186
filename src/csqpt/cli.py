"""Command-line front end for the coherent-state tomography pipeline.

Subcommands cover the whole workflow: ``simulate`` writes Wigner datasets,
``reconstruct`` fits Kraus operators to a dataset, ``analyze`` emits
transfer matrices and fidelity reports, ``budget`` attributes infidelity
to decoherence mechanisms, and ``decode-study`` compares the decoded
against the direct logical Pauli transfer matrix.

Conventions shared by all subcommands:

- each option is one row of ``OPTIONS``, which gives its config key,
  flag, type, default and help; ``init``, ``step_size`` and ``grad_tol``
  of ``reconstruct`` are config-only, and ``--data`` and ``--result``
  must be given as flags;
- settings resolve as flags over ``--config`` JSON file over built-in
  defaults, and every value passes through its option's type; every run
  prints the converted configuration and seed before doing any work, and
  identical resolved configurations produce identical output files;
- structured artifacts are JSON carrying a ``schema`` field, matrices
  are CSV with labeled headers;
- a gate is specified as the builtin name ``x-gate``, a path to a gate
  sequence JSON file ({"steps": [...]}), or a path to a Kraus JSON file;
- exit codes: 0 success (warnings included), 2 usage (a malformed number
  given as a flag included), 3 unreadable or invalid data (any config
  value that does not convert and a size the machine cannot allocate
  included), 4 numerical failure;
- a closed stdout (a reader such as ``head`` that has gone) is not an
  error: the rest of the run's stdout is discarded, its files are still
  written and it exits with the code it would have had.

The environment variable ``CSQPT_THREADS`` caps the BLAS thread count.
It takes effect when the package is imported before numpy, which is
always the case for console-script or ``python -m csqpt`` invocations.

Start-up is part of every command's wall time, so this module imports
only what all commands use (numpy, ``channel``, ``errors``); each command
imports the layers it runs, and the parser gives flags to the invoked
subcommand only, so reconstruct's defaults are read from
``ReconstructionConfig`` only by ``reconstruct``.  Besides ``channel``,
``errors`` and ``fock``, ``simulate`` loads ``gates`` and ``tomography``;
``reconstruct`` loads ``tomography`` and ``reconstruct``; ``budget``
loads ``gates`` and ``metrics``; ``decode-study`` adds ``basis``; and
``analyze`` loads all eight layers.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .channel import (DecoherenceParams, kraus_from_json, require_isometry,
                      unitary_channel)
from .errors import (CsqptError, NotAChannelError, NumericalConsistencyError,
                     RetractionError, ValidationError, read_int, read_json, read_real,
                     read_str)

DATA_EXIT = 3
NUMERIC_EXIT = 4

EMIT_CHOICES = ("gtm", "ptm", "poptm", "fidelity", "sweep")
SWEEP_CUTS = tuple(range(2, 11))


# Value types: each turns a flag string or a --config JSON value into what
# the command runs with, raising ValueError or TypeError when it cannot.
# Text is parsed as a flag is; any other value goes through the shared
# readers of ``errors``.
def integer(value):
    return int(value) if isinstance(value, str) else read_int(
        value, "config value", error=ValueError)


def real(value):
    return float(value) if isinstance(value, str) else read_real(
        value, "config value", error=ValueError, finite=False)


def string(value):
    return read_str(value, "config value", TypeError)


def _pair(value):
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise ValueError("expected two values 'a,b'")
    return parts


def grid_spec(value):
    """'n,extent' or [n, extent] -> (n, extent)."""
    n, extent = _pair(value)
    return integer(n), real(extent)


def decay_times(value):
    """'T1,T2' or [T1, T2] in microseconds, inf allowed -> DecoherenceParams."""
    t1, t2 = _pair(value)
    return DecoherenceParams(t1=real(t1), t2=real(t2))


def emit_kinds(value):
    kinds = [value] if isinstance(value, str) else list(value)
    unknown = sorted(set(kinds) - set(EMIT_CHOICES))
    if unknown:
        raise ValueError(f"unknown emit kinds {unknown}")
    return kinds


# Every option of every subcommand, once: (config key, type, default, help).
# The flag is --key with "_" spelled "-"; a row with help None is a
# config-only key, and a REQUIRED row is a flag that must be given.
REQUIRED = object()
# ReconstructionConfig's default dim, written out so that the other
# commands need not load the fit layer to build their flags
DIM = ("dim", integer, 32, "Fock truncation")
GATE = ("gate", string, "x-gate", "x-gate | sequence JSON | Kraus JSON")
NOISE = ("noise", decay_times, None, "T1,T2 in microseconds; inf allowed")


def _fit_options():
    """reconstruct's rows, built on demand: their defaults are
    ReconstructionConfig's, and reading them loads the fit layer."""
    from .reconstruct import ReconstructionConfig

    fit = ReconstructionConfig()
    return (
        ("data", string, REQUIRED, "dataset JSON path"),
        ("rank", integer, fit.rank, "number of Kraus operators"),
        ("dim", integer, fit.dim, "Fock truncation"),
        ("gamma", real, fit.gamma, "L1 weight"),
        ("iters", integer, fit.max_iters, "iteration cap"),
        ("seed", integer, fit.seed, "init seed"),
        ("init", string, fit.init, None),
        ("step_size", real, fit.step_size, None),
        ("grad_tol", real, fit.grad_tol, None),
        ("out", string, "result.json", "output result path"),
    )


OPTIONS = {
    "simulate": (
        GATE, DIM,
        ("shots", integer, 0, "shots per Wigner point; 0 = exact"),
        ("seed", integer, 0, "shot-noise seed"),
        ("probe_grid", grid_spec, "5,1.5", "n,alpha_max"),
        ("wigner_grid", grid_spec, "21,2.62", "n,beta_max"),
        NOISE,
        ("out", string, "dataset.json", "output dataset path"),
    ),
    "reconstruct": _fit_options,
    "analyze": (
        ("result", string, REQUIRED, "result JSON path"),
        ("target", string, "x-gate", "target gate spec"),
        ("emit", emit_kinds, None, "artifact to emit; repeatable; none emits all"),
        ("out_dir", string, ".", "output directory"),
    ),
    "budget": (
        DIM,
        ("noise", decay_times, "315,478", "T1,T2 in microseconds; inf allowed"),
        ("out", string, "budget.csv", "output CSV path"),
    ),
    "decode-study": (GATE, DIM, NOISE, ("out_dir", string, ".", "output directory")),
}


def options(command):
    """The OPTIONS rows of one subcommand."""
    rows = OPTIONS[command]
    return rows() if callable(rows) else rows


def _resolve(args):
    """Typed settings of one run: flag over --config file over default.

    Every value passes through its row's type; one that does not convert,
    or a null where the default is not None, raises ValidationError.
    """
    rows = options(args.command)
    from_file = {}
    if args.config:
        from_file = read_json(args.config, "config")
        if not isinstance(from_file, dict):
            raise ValidationError("config file must hold a JSON object")
        # a REQUIRED row (--data, --result) is a flag a file cannot supply
        unknown = sorted(set(from_file) - {r[0] for r in rows if r[2] is not REQUIRED})
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}")
    resolved = {}
    for key, kind, default, _ in rows:
        value = getattr(args, key, None)
        if value is None:
            value = from_file.get(key, default)
        if value is None and default is not None:
            raise ValidationError(f"{key} must not be null")
        try:
            resolved[key] = None if value is None else kind(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad {key} {value!r}: {exc}") from exc
    return resolved


def _say(*parts):
    """Print a line to stdout; once its reader has gone, discard the rest."""
    try:
        print(*parts, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_header(command, resolved):
    _say(f"command: {command}")
    # vars prints a DecoherenceParams as {"t1": ..., "t2": ...}
    _say("config:", json.dumps(resolved, sort_keys=True, default=vars))
    seed = resolved.get("seed", "none")
    _say(f"seed: {seed}")


def _gate_channel(spec, dim, noise=None):
    """Resolve a gate spec to a SequenceChannel or (Kraus files) a KrausSet."""
    from . import gates

    if spec == "x-gate":
        return gates.SequenceChannel(gates.x_gate_sequence(), noise, dim)
    data = read_json(spec, "gate file")
    fields = data if isinstance(data, dict) else {}
    if "steps" in fields:
        return gates.SequenceChannel(gates.sequence_from_json(data), noise, dim)
    if "operators" in fields:
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
    from . import gates

    if spec == "x-gate":
        return gates.ideal_logical_x(code), gates.ideal_logical_x_unitary(code)
    ch = _gate_channel(spec, code.dim)
    if isinstance(ch, gates.SequenceChannel):
        u = gates.compose_unitary(ch.sequence, code.dim)
    elif ch.rank != 1:
        raise ValidationError("target Kraus file must have rank 1 (a unitary)")
    else:
        u = require_isometry(ch).operators[0]
    p = code.projector()
    return p @ u @ p, u


def cmd_simulate(cfg):
    from . import tomography

    probes = tomography.probe_grid(*cfg["probe_grid"])
    grid = tomography.wigner_grid(*cfg["wigner_grid"])
    channel = _gate_channel(cfg["gate"], cfg["dim"], cfg["noise"])
    ds = tomography.simulate_dataset(
        channel, probes, grid, shots=cfg["shots"], seed=cfg["seed"]
    )
    tomography.save_dataset(ds, cfg["out"])
    _say(
        f"wrote {cfg['out']}: n_probes={ds.probes.size} n_betas={ds.betas.size}"
        f" mean|W|={float(np.abs(ds.values).mean()):.6f}"
    )
    return 0


def cmd_reconstruct(cfg):
    from . import reconstruct, tomography

    ds = tomography.load_dataset(cfg["data"])
    fit = {k: v for k, v in cfg.items() if k not in ("data", "iters", "out")}
    rcfg = reconstruct.ReconstructionConfig(max_iters=cfg["iters"], **fit)
    ks, report = reconstruct.reconstruct(ds, rcfg)
    reconstruct.save_result(ks, report, rcfg, cfg["out"])
    _say(
        f"wrote {cfg['out']}: iters={report.iters_used} l2={report.l2:.3e}"
        f" total={report.total:.3e} grad_norm={report.grad_norm:.3e}"
    )
    if not report.converged:
        why = reconstruct.STOP_REASONS[report.stop_reason].format(
            iters=report.iters_used)
        print(
            f"warning: no convergence: {why}"
            f" (grad_norm {report.grad_norm:.3e} > {rcfg.grad_tol:.1e})",
            file=sys.stderr,
        )
    return 0


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    _say(f"wrote {path}")


def cmd_analyze(cfg):
    from . import basis as basis_mod
    from . import gates, metrics, reconstruct

    emits = cfg["emit"] or EMIT_CHOICES
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
        _write_text(
            os.path.join(out_dir, "fidelity.json"),
            json.dumps(asdict(fid), indent=2, sort_keys=True) + "\n",
        )
        _say(f"f_avg={fid.f_avg:.6f} f_pro={fid.f_pro:.6f} leakage={fid.leakage:.6f}")
    if "sweep" in emits:
        cuts = [c for c in SWEEP_CUTS if c < ks.dim]
        table = metrics.truncation_sweep(ks, unitary_channel(target_full), cuts)
        lines = ["cut,f_pro"] + [f"{cut},{repr(float(f))}" for cut, f in table]
        _write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_budget(cfg):
    from . import gates, metrics

    code = gates.BinomialCode(cfg["dim"])
    budget = metrics.error_budget(gates.x_gate_sequence(), cfg["noise"], code)
    lines = ["channel,contribution"]
    lines += [f"{label},{repr(float(x))}" for label, x in budget.contributions]
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    _say(f"baseline infidelity: {budget.baseline:.6f}")
    if budget.clipped:
        _say(f"clipped to zero: {', '.join(budget.clipped)}")
    return 0


def cmd_decode_study(cfg):
    from . import gates, metrics

    channel = _gate_channel(cfg["gate"], cfg["dim"], cfg["noise"])
    code = gates.BinomialCode(cfg["dim"])
    decoded, direct = metrics.decoder_study(channel, code)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "decoded_ptm.csv"), decoded.to_csv())
    _write_text(os.path.join(out_dir, "direct_ptm.csv"), direct.to_csv())
    deficit = 1.0 - float(direct.elements[0, 0])
    _say(f"decoded trace row: {[round(float(x), 6) for x in decoded.elements[0]]}")
    _say(f"direct trace-block deficit: {deficit:.6f}")
    return 0


COMMANDS = {
    "simulate": (cmd_simulate, "simulate a Wigner tomography dataset"),
    "reconstruct": (cmd_reconstruct, "fit Kraus operators to a dataset"),
    "analyze": (cmd_analyze, "transfer matrices, fidelity, truncation sweep"),
    "budget": (cmd_budget, "decoherence error budget of the composed gate"),
    "decode-study": (
        cmd_decode_study, "decoded vs direct logical Pauli transfer matrix"
    ),
}


def build_parser(flagged=tuple(COMMANDS)):
    """Every subcommand; those in ``flagged`` get one --config flag plus
    one flag per OPTIONS row (main flags only the invoked one, so no other
    subcommand's defaults are read)."""
    parser = argparse.ArgumentParser(
        prog="csqpt",
        description="Coherent-state process tomography of bosonic logical gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, about) in COMMANDS.items():
        sp = sub.add_parser(command, help=about)
        sp.set_defaults(func=func)
        if command not in flagged:
            continue
        sp.add_argument("--config", help="JSON file with defaults; flags override")
        for key, kind, default, text in options(command):
            if text is None:
                continue
            flag = {"dest": key, "help": text}
            if default is REQUIRED:
                flag["required"] = True
            else:
                shown = "none" if default is None else default
                flag["help"] += f" (default {shown})"
            # a malformed number is a usage error (exit 2); composite values
            # such as grids and noise are checked by _resolve (exit 3)
            if kind in (integer, real):
                flag["type"] = kind
            if kind is emit_kinds:
                flag.update(action="append", choices=EMIT_CHOICES)
            sp.add_argument("--" + key.replace("_", "-"), **flag)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no option but --help, so the first other
    # token names the subcommand
    invoked = [next((a for a in argv if not a.startswith("-")), None)]
    args = build_parser(invoked).parse_args(argv)
    try:
        cfg = _resolve(args)
        _print_header(args.command, cfg)
        return args.func(cfg)
    except (NotAChannelError, NumericalConsistencyError, RetractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (CsqptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
