"""What the benchmark measures: workloads, sizes and metric definitions.

Shared by ``run.py`` (orchestrator), ``worker.py`` (in-library probes) and
the benchmark's tests.  ``BENCHMARK.json`` at the repository root must
list the same workloads and metrics; ``test_perfbench.py`` checks that.
"""

CF, CLI, NG = "contract-fit", "cli-pipeline", "noisy-gate"
ALL = (CF, CLI, NG)

WORKLOADS = {
    CF: "in-process capped Stiefel fit at the contract settings; reconstruct "
        "does over 95% of the work",
    CLI: "simulate, reconstruct, analyze as fresh CLI processes: import, cold "
         "parity build, shot sampling, JSON I/O and the Choi truncation sweep",
    NG: "budget and decode-study with T1/T2 noise: the only d^2 x d^2 "
        "superoperator, expm and eigh paths, on a rank-258 channel",
}

# Contract settings (dim 32, rank 4, gamma 4e-4, 5x5 probes, 21x21 grid)
# and the tiny smoke sizes the benchmark's own tests use.
SIZES = {
    "full": {
        "dim": 32, "rank": 4, "gamma": 4e-4,
        "probe_grid": [5, 1.5], "wigner_grid": [21, 2.62],
        "fit_iters": 200, "cli_iters": 30, "shots": 1000,
        "noise": [315.0, 478.0],
        "budget_ref": {"photon-loss": 0.01688, "pure-dephasing": 0.01053},
    },
    "smoke": {
        "dim": 10, "rank": 4, "gamma": 4e-4,
        "probe_grid": [3, 1.0], "wigner_grid": [7, 2.62],
        "fit_iters": 5, "cli_iters": 5, "shots": 100,
        "noise": [315.0, 478.0],
        "budget_ref": {"photon-loss": 0.01690, "pure-dephasing": 0.01053},
    },
}
# budget_ref: the infidelity contributions of `csqpt budget` at that
# size, to four significant digits.  noisy-gate fails a contribution
# that differs from its reference by more than BUDGET_RTOL, and its f_err
# is the distance of their sum from the reference sum.
BUDGET_RTOL = 1e-3

# Fewest cold set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# BLAS threads of every process the benchmark starts: min(THREADS, nproc),
# whatever CSQPT_THREADS the caller's environment holds.
THREADS = 2

# End-to-end metrics, printed by every run with --trace 0:
# (name, unit, better, bound)
END_TO_END = (
    ("op_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("f_err", "fidelity", "lower", 0.18),
)

# Per-layer metrics, printed by every run with --trace 1.
# (name, unit, source, workloads on whose path the layer lies)
# Sources:
#   probe   median of the worker's "probe:<stem>" spans (or its count)
#   op      median duration of the library span <stem> in the traced op
#   iter    traced fit time per accepted iteration / iterations used
#   import  median wall time of a fresh ``import csqpt`` process
#   self    layer self time over the traced op
#   trace   traced minus untraced op time, and the span count
# On a workload outside the list the layer does no such work; the value
# is 0.  A metric whose public function is gone is reported missing.
_FIT_PATH = (CF, CLI)
PER_LAYER = (
    ("reconstruct.predict_wigner_ms", "ms", "probe", _FIT_PATH),
    ("reconstruct.euclidean_gradient_ms", "ms", "probe", _FIT_PATH),
    ("reconstruct.retract_ms", "ms", "probe", _FIT_PATH),
    ("reconstruct.loss_ms", "ms", "probe", _FIT_PATH),
    ("reconstruct.iter_ms", "ms", "iter", _FIT_PATH),
    ("reconstruct.iters_used", "count", "iter", _FIT_PATH),
    ("reconstruct.save_result_s", "s", "probe", (CLI,)),
    ("reconstruct.load_result_s", "s", "probe", (CLI,)),
    ("reconstruct.result_bytes", "bytes", "probe", (CLI,)),
    ("tomography.parity_ops_cold_s", "s", "probe", _FIT_PATH),
    ("tomography.simulate_exact_s", "s", "probe", _FIT_PATH),
    ("tomography.simulate_shots_s", "s", "probe", _FIT_PATH),
    ("tomography.save_dataset_s", "s", "probe", _FIT_PATH),
    ("tomography.load_dataset_s", "s", "probe", _FIT_PATH),
    ("tomography.dataset_bytes", "bytes", "probe", _FIT_PATH),
    ("fock.displacement_ms", "ms", "probe", _FIT_PATH),
    ("fock.coherent_state_ms", "ms", "probe", _FIT_PATH),
    ("channel.apply_rank4_ms", "ms", "probe", (NG,)),
    ("channel.apply_noisy_ms", "ms", "probe", (NG,)),
    ("channel.decay_superoperator_cold_s", "s", "probe", (NG,)),
    ("channel.choi_to_kraus_s", "s", "probe", (NG,)),
    ("channel.kraus_to_super_ms", "ms", "probe", (NG,)),
    ("gates.noisy_gate_process_cold_s", "s", "probe", (NG,)),
    ("gates.noisy_gate_process_warm_s", "s", "probe", (NG,)),
    ("gates.noisy_rank", "count", "probe", (NG,)),
    ("basis.gellmann_set_ms", "ms", "probe", (CLI, NG)),
    ("basis.transfer_matrix_ms", "ms", "probe", (CLI, NG)),
    ("basis.logical_ptm_ms", "ms", "probe", (CLI, NG)),
    ("basis.population_transfer_matrix_ms", "ms", "probe", (CLI, NG)),
    ("metrics.avg_gate_fidelity_ms", "ms", "probe", ALL),
    ("metrics.process_fidelity_choi_s", "s", "probe", (CLI,)),
    ("metrics.truncation_sweep_s", "s", "op", (CLI,)),
    ("metrics.error_budget_s", "s", "op", (NG,)),
    ("metrics.decoder_study_s", "s", "op", (NG,)),
    ("cli.import_s", "s", "import", (CLI, NG)),
    ("self.fock_s", "s", "self", ALL),
    ("self.channel_s", "s", "self", ALL),
    ("self.gates_s", "s", "self", ALL),
    ("self.tomography_s", "s", "self", ALL),
    ("self.reconstruct_s", "s", "self", ALL),
    ("self.basis_s", "s", "self", ALL),
    ("self.metrics_s", "s", "self", ALL),
    ("self.cli_s", "s", "self", ALL),
    ("self.bench_s", "s", "self", ALL),
    ("trace.overhead_s", "s", "trace", ALL),
    ("trace.spans", "count", "trace", ALL),
)

UNIT_SCALE = {"ms": 1e3, "s": 1.0}


def stem(name):
    """Span or count name behind a metric: the name without its unit suffix."""
    for suffix in ("_ms", "_s"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def probe_stems(workload):
    return [stem(name) for name, _, source, wls in PER_LAYER
            if source == "probe" and workload in wls]
