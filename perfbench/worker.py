"""In-library side of the benchmark: runs inside a fresh Python process.

Subcommands (each takes ``--sizes`` as JSON; see ``spec.SIZES``):

  fit      set up (import csqpt, simulate the contract-fit dataset), note
           when ready, then run --fits capped fits; with --spans, one
           untraced and one traced fit instead
  truth    print the average gate fidelity of the noise-free bundled gate
  probes   time single public layer functions (the per-layer probes)
  cli      run one ``csqpt`` command with every layer call traced

The parent sets ``CSQPT_THREADS`` and ``PYTHONPATH`` in the environment;
csqpt (and with it numpy) is imported only after this process starts, so
the thread cap applies.  Results go to the JSON or JSONL file the parent
names; nothing is read or written outside the parent's work directory.
"""

import argparse
import functools
import json
import os
import sys
import time

from spec import SIZES
from tracer import Tracer


def _import_csqpt():
    import csqpt  # noqa: F401  (package import applies CSQPT_THREADS)
    import csqpt.cli

    return csqpt


class Setup:
    """The contract-fit inputs: grids, the noise-free gate and its dataset."""

    def __init__(self, csqpt, sizes):
        self.csqpt = csqpt
        self.sizes = sizes
        self.dim = sizes["dim"]
        tomo, gates = csqpt.tomography, csqpt.gates
        self.probes = tomo.probe_grid(*sizes["probe_grid"])
        self.grid = tomo.wigner_grid(*sizes["wigner_grid"])
        self.code = gates.BinomialCode(self.dim)
        self.target = gates.ideal_logical_x(self.code)
        self.truth = gates.noisy_gate_process(gates.x_gate_sequence(), None, self.dim)

    @functools.cached_property
    def dataset(self):
        return self.csqpt.tomography.simulate_dataset(
            self.truth, self.probes, self.grid, shots=0)

    @functools.cached_property
    def f_truth(self):
        return self.csqpt.metrics.avg_gate_fidelity(
            self.truth, self.target, self.code).f_avg


def fit_op(s, cfg):
    """One capped fit plus its fidelity check; library calls go through the
    package attributes so that an installed tracer sees them."""
    rec = {"ok": False}
    try:
        t0 = time.perf_counter()
        ks, report = s.csqpt.reconstruct.reconstruct(s.dataset, cfg)
        t1 = time.perf_counter()
        fid = s.csqpt.metrics.avg_gate_fidelity(ks, s.target, s.code)
        t2 = time.perf_counter()
    except Exception as exc:  # a failed operation is counted, not fatal
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    hist = report.history
    problems = []
    if not ks.certified:
        problems.append("fitted KrausSet is not certified CPTP")
    if any(b > a for a, b in zip(hist, hist[1:])):
        problems.append("loss history increases")
    if report.iters_used != cfg.max_iters:
        problems.append(f"iters_used {report.iters_used} != cap {cfg.max_iters}")
    rec.update(
        ok=not problems, error="; ".join(problems) or None,
        fit_s=t1 - t0, op_s=t2 - t0, fit_loss=report.total,
        f_err=abs(fid.f_avg - s.f_truth), iters=report.iters_used,
    )
    return rec


def cmd_fit(a):
    csqpt = _import_csqpt()
    s = Setup(csqpt, a.sizes)
    cfg = csqpt.reconstruct.ReconstructionConfig(
        rank=a.sizes["rank"], dim=s.dim, gamma=a.sizes["gamma"],
        max_iters=a.sizes["fit_iters"])
    s.dataset, s.f_truth  # the set-up, outside the timed fits
    ready = time.perf_counter()  # system-wide clock, read by the parent too
    ops = []
    if a.spans:
        ops.append(fit_op(s, cfg))
        tracer = Tracer(a.run_id, id_prefix="fit-")
        tracer.install()
        try:
            with tracer.span("bench.op"):
                ops.append(fit_op(s, cfg))
        finally:
            tracer.uninstall()
        tracer.write(a.spans)
    else:
        ops = [fit_op(s, cfg) for _ in range(a.fits)]
    _write_json(a.out, {"ready": ready, "ops": ops})


def cmd_truth(a):
    s = Setup(_import_csqpt(), a.sizes)
    print(json.dumps({"f_avg": s.f_truth}))


# --- per-layer probes -------------------------------------------------------

class ProbeContext:
    """Inputs for the probes, built on first use outside any probe span."""

    def __init__(self, csqpt, sizes, seed, workdir):
        self.csqpt, self.sizes, self.seed = csqpt, sizes, seed
        self.dim = sizes["dim"]
        self.workdir = workdir
        self.results = {}

    def __getattr__(self, name):  # layer modules: ctx.channel, ctx.gates, ...
        return getattr(self.csqpt, name)

    @functools.cached_property
    def setup(self):
        return Setup(self.csqpt, self.sizes)

    @functools.cached_property
    def shots_dataset(self):
        return self.tomography.simulate_dataset(
            self.setup.truth, self.setup.probes, self.setup.grid,
            shots=self.sizes["shots"], seed=self.seed)

    @functools.cached_property
    def rank4(self):
        import numpy as np

        return self.channel.random_channel(
            self.dim, self.sizes["rank"], np.random.default_rng(self.seed))

    @functools.cached_property
    def point(self):
        return self.reconstruct.stack_kraus(self.rank4.operators)

    @functools.cached_property
    def params(self):
        return self.channel.DecoherenceParams(*self.sizes["noise"])

    @functools.cached_property
    def noisy(self):
        done = self.results.get("gates.noisy_gate_process_warm")
        return done or self.gates.noisy_gate_process(
            self.gates.x_gate_sequence(), self.params, self.dim)

    @functools.cached_property
    def rho(self):
        import numpy as np

        ket = self.fock.coherent_state(0.5 + 0.25j, self.dim)
        return np.outer(ket, ket.conj())

    @functools.cached_property
    def fit_result(self):
        cfg = self.reconstruct.ReconstructionConfig(
            rank=self.sizes["rank"], dim=self.dim, gamma=self.sizes["gamma"],
            max_iters=2, seed=self.seed)
        ks, report = self.reconstruct.reconstruct(self.setup.dataset, cfg)
        return ks, report, cfg

    @functools.cached_property
    def ordered_basis(self):
        return self.basis.logical_ordered_basis(self.setup.code)

    @functools.cached_property
    def gellmann(self):
        return self.basis.gellmann_set(self.ordered_basis)

    def path(self, name):
        return os.path.join(self.workdir, name)


def _p(fn, *args, **kwargs):
    return functools.partial(fn, *args, **kwargs)


# (stem, public functions it needs, repeats, factory).  A factory returns
# either a zero-argument call, timed ``repeats`` times under the span
# "probe:<stem>", or (with repeats 0) a count.  Factories run before the
# span opens, so preparing inputs is never timed.  Order matters: the
# "cold" probes must be the first calls of their kind in the process.
PROBES = (
    ("tomography.parity_ops_cold", ("tomography.displaced_parity_ops",), 1,
     lambda c: _p(c.tomography.displaced_parity_ops, c.setup.grid.betas, c.dim)),
    ("tomography.simulate_exact", ("tomography.simulate_dataset",), 3,
     lambda c: _p(c.tomography.simulate_dataset, c.setup.truth, c.setup.probes,
                  c.setup.grid, shots=0)),
    ("tomography.simulate_shots", ("tomography.simulate_dataset",), 3,
     lambda c: _p(c.tomography.simulate_dataset, c.setup.truth, c.setup.probes,
                  c.setup.grid, shots=c.sizes["shots"], seed=c.seed)),
    ("tomography.save_dataset", ("tomography.save_dataset",), 3,
     lambda c: _p(c.tomography.save_dataset, c.shots_dataset, c.path("dataset.json"))),
    ("tomography.dataset_bytes", ("tomography.save_dataset",), 0,
     lambda c: os.path.getsize(c.path("dataset.json"))),
    ("tomography.load_dataset", ("tomography.load_dataset", "tomography.save_dataset"), 3,
     lambda c: _p(c.tomography.load_dataset, c.path("dataset.json"))),
    ("fock.displacement", ("fock.displacement",), 50,
     lambda c: _p(c.fock.displacement, 0.61 + 0.2j, c.dim)),
    ("fock.coherent_state", ("fock.coherent_state",), 50,
     lambda c: _p(c.fock.coherent_state, 1.0 + 0.5j, c.dim)),
    ("reconstruct.predict_wigner", ("reconstruct.predict_wigner",), 20,
     lambda c: _p(c.reconstruct.predict_wigner, c.point, c.setup.probes, c.setup.grid)),
    ("reconstruct.euclidean_gradient", ("reconstruct.euclidean_gradient",), 20,
     lambda c: _p(c.reconstruct.euclidean_gradient, c.point, c.setup.dataset,
                  c.sizes["gamma"])),
    ("reconstruct.retract", ("reconstruct.retract",), 50,
     lambda c: _p(c.reconstruct.retract, 1.001 * c.point.matrix)),
    ("reconstruct.loss", ("reconstruct.loss",), 20,
     lambda c: _p(c.reconstruct.loss, c.point, c.setup.dataset, c.sizes["gamma"])),
    ("reconstruct.save_result", ("reconstruct.save_result",), 3,
     lambda c: _p(c.reconstruct.save_result, *c.fit_result, c.path("result.json"))),
    ("reconstruct.result_bytes", ("reconstruct.save_result",), 0,
     lambda c: os.path.getsize(c.path("result.json"))),
    ("reconstruct.load_result", ("reconstruct.load_result", "reconstruct.save_result"), 3,
     lambda c: _p(c.reconstruct.load_result, c.path("result.json"))),
    ("gates.noisy_gate_process_cold", ("gates.noisy_gate_process",), 1,
     lambda c: _p(c.gates.noisy_gate_process, c.gates.x_gate_sequence(), c.params, c.dim)),
    ("gates.noisy_gate_process_warm", ("gates.noisy_gate_process",), 1,
     lambda c: _p(c.gates.noisy_gate_process, c.gates.x_gate_sequence(), c.params, c.dim)),
    ("gates.noisy_rank", ("gates.noisy_gate_process",), 0,
     lambda c: c.noisy.rank),
    ("channel.apply_rank4", ("channel.apply",), 10,
     lambda c: _p(c.channel.apply, c.rank4, c.rho)),
    ("channel.apply_noisy", ("channel.apply",), 2,
     lambda c: _p(c.channel.apply, c.noisy, c.rho)),
    # a step duration the bundled gate never uses, so the cache is cold
    ("channel.decay_superoperator_cold", ("channel.decay_superoperator",), 1,
     lambda c: _p(c.channel.decay_superoperator, c.params, 0.35, c.dim)),
    ("channel.choi_to_kraus", ("channel.choi_to_kraus", "channel.kraus_to_choi"), 1,
     lambda c: _p(c.channel.choi_to_kraus, c.channel.kraus_to_choi(c.noisy))),
    ("channel.kraus_to_super", ("channel.kraus_to_super",), 5,
     lambda c: _p(c.channel.kraus_to_super, c.rank4)),
    ("basis.gellmann_set", ("basis.gellmann_set", "basis.logical_ordered_basis"), 5,
     lambda c: _p(c.basis.gellmann_set, c.ordered_basis)),
    ("basis.transfer_matrix", ("basis.transfer_matrix", "basis.display_indices"), 5,
     lambda c: _p(c.basis.transfer_matrix, c.rank4, c.gellmann,
                  rows=c.basis.display_indices(c.gellmann))),
    ("basis.logical_ptm", ("basis.logical_ptm",), 10,
     lambda c: _p(c.basis.logical_ptm, c.rank4, c.setup.code)),
    ("basis.population_transfer_matrix", ("basis.population_transfer_matrix",), 10,
     lambda c: _p(c.basis.population_transfer_matrix, c.rank4, c.ordered_basis)),
    ("metrics.avg_gate_fidelity", ("metrics.avg_gate_fidelity",), 20,
     lambda c: _p(c.metrics.avg_gate_fidelity, c.rank4, c.setup.target, c.setup.code)),
    ("metrics.process_fidelity_choi", ("metrics.process_fidelity_choi",), 1,
     lambda c: _p(c.metrics.process_fidelity_choi, c.rank4,
                  c.channel.unitary_channel(
                      c.gates.ideal_logical_x_unitary(c.setup.code)),
                  subspace_cut=min(5, c.dim - 1))),
)


def _has(csqpt, dotted):
    module, name = dotted.split(".")
    return callable(getattr(getattr(csqpt, module, None), name, None))


def cmd_probes(a):
    csqpt = _import_csqpt()
    wanted = set(a.stems.split(","))
    tracer = Tracer(a.run_id, id_prefix="probe-")
    tracer.install()
    ctx = ProbeContext(csqpt, a.sizes, a.seed, a.workdir)
    counts, missing, errors, attempted = {}, [], [], 0
    try:
        for stem, needs, repeats, build in PROBES:
            if stem not in wanted:
                continue
            if not all(_has(csqpt, n) for n in needs):
                missing.append(stem)
                continue
            attempted += 1
            try:
                call = build(ctx)
                if repeats == 0:
                    counts[stem] = call
                    continue
                for _ in range(repeats):
                    with tracer.span("probe:" + stem):
                        ctx.results[stem] = call()
            except Exception as exc:  # a failed probe is counted, not fatal
                errors.append(f"{stem}: {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
    tracer.write(a.spans)
    _write_json(a.out, {"counts": counts, "missing": missing,
                        "errors": errors, "attempted": attempted})


# --- traced CLI -------------------------------------------------------------

def cmd_cli(a):
    tracer = Tracer(a.run_id, id_prefix=f"{a.tag}-", root_parent=a.parent)
    code = 1
    try:
        with tracer.span("cli.import"):
            csqpt = _import_csqpt()
        tracer.install()
        code = csqpt.cli.main(a.argv)
    finally:
        tracer.uninstall()
        tracer.write(a.spans)
    sys.exit(code)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("fit", "truth", "probes", "cli"):
        sp = sub.add_parser(name)
        sp.add_argument("--sizes", type=json.loads, default=SIZES["full"])
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--run-id", default="run")
        sp.add_argument("--spans", help="JSONL file for the recorded spans")
        sp.add_argument("--out", help="JSON result file")
    sub.choices["fit"].add_argument("--fits", type=int, default=1)
    sub.choices["probes"].add_argument("--stems", required=True)
    sub.choices["probes"].add_argument("--workdir", required=True)
    sub.choices["cli"].add_argument("--tag", required=True)
    sub.choices["cli"].add_argument("--parent")
    sub.choices["cli"].add_argument("argv", nargs=argparse.REMAINDER)
    a = p.parse_args(argv)
    if a.cmd == "cli" and a.argv[:1] == ["--"]:
        a.argv = a.argv[1:]
    {"fit": cmd_fit, "truth": cmd_truth,
     "probes": cmd_probes, "cli": cmd_cli}[a.cmd](a)


if __name__ == "__main__":
    main()
