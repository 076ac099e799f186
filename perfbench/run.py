#!/usr/bin/env python3
"""Benchmark of the csqpt tomography pipeline: end to end and per layer.

  python3 perfbench/run.py --workload contract-fit --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all                  # every workload, one table
  python3 perfbench/run.py --all --smoke          # tiny sizes, a few seconds

Run from the repository root.  The benchmark drives csqpt from outside:
the ``python -m csqpt`` CLI and a few public library functions, always in
fresh processes whose BLAS pool is capped through ``CSQPT_THREADS``.  Load
is closed-loop from a single client: each operation starts when the
previous one has ended.  See perfbench/README.md for the workloads and the
metric map.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a separate traced run.  Work files and spans go to ``.bench_work/``.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import spec
from tracer import Tracer, durations, read_spans, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable

# A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
# The budget check compares against 1 - f_avg printed with six decimals.
BASELINE_TOL = 1e-6
DECODED_TOL = 1e-6


def threads():
    return max(1, min(spec.THREADS, os.cpu_count() or 1))


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # csqpt derives them from CSQPT_THREADS
    env["CSQPT_THREADS"] = str(threads())
    env["PYTHONPATH"] = SRC
    return env


def git_sha():
    """HEAD from .git without running git, which would search parent dirs."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


VERSIONS_SNIPPET = (
    "import json, platform, numpy, scipy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
    " 'blas': blas.get('name', '?') + ' ' + blas.get('version', '?')}))\n"
)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def file_hashes(directory):
    out = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_csv_floats(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], {r[0]: [float(x) for x in r[1:]] for r in rows[1:]}


class Run:
    """One benchmark invocation: its processes, counts, spans and files."""

    def __init__(self, workload, seed, seconds, trace, sizes):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.sizes = trace, sizes
        self.env = child_env()
        self.start = time.perf_counter()
        self.work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setups = []  # cold set-up seconds, spread over the run
        self.tracer = Tracer(f"{workload}:{seed}", id_prefix="run-")
        self.spans = []

    # -- processes and counting ------------------------------------------

    def proc(self, argv, cwd=None):
        """Run a child to completion; returns (exit code, wall s, stdout)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))
        t0 = time.perf_counter()
        try:
            p = subprocess.run(argv, cwd=cwd or self.work, env=self.env,
                               capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return -1, time.perf_counter() - t0, ""
        wall = time.perf_counter() - t0
        if p.returncode != 0:
            tail = (p.stderr or "").strip().splitlines()[-1:]
            self.errors.append(f"{' '.join(argv[1:4])}: exit {p.returncode} {tail}")
        return p.returncode, wall, p.stdout

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        return not problems

    def csqpt(self, args, cwd, traced, tag):
        """One ``csqpt`` command in a fresh process, traced or not."""
        if not traced:
            return self.proc([PY, "-m", "csqpt", *args], cwd)
        spans_file = os.path.join(cwd, f"spans-{tag}.jsonl")
        with self.tracer.span(f"bench.cmd:{tag}") as sid:
            result = self.proc([PY, WORKER, "cli", "--spans", spans_file,
                                "--parent", sid, "--tag", tag,
                                "--run-id", self.tracer.run_id, "--", *args], cwd)
        if os.path.exists(spans_file):
            self.spans.extend(read_spans(spans_file))
        return result

    def sizes_arg(self):
        return ["--sizes", json.dumps(self.sizes)]

    def worker(self, *args):
        return self.proc([PY, WORKER, *args, *self.sizes_arg(),
                          "--seed", str(self.seed)])

    # -- shared steps ----------------------------------------------------

    def import_setup(self):
        """One cold ``import csqpt.cli``, the start-up every command pays."""
        code, wall, _ = self.proc([PY, "-c", "import csqpt.cli"])
        if self.record([] if code == 0 else [f"setup exited {code}"]):
            self.setups.append(wall)

    def setup_s(self):
        """Median cold set-up, after topping the run's samples up to
        SETUP_REPEATS."""
        for _ in range(spec.SETUP_REPEATS - len(self.setups)):
            if self.workload == spec.CF:
                self.fit_worker(0)
            else:
                self.import_setup()
        return median(self.setups)

    def f_truth(self):
        code, _, out = self.worker("truth")
        if code != 0:
            raise RuntimeError("cannot compute the noise-free fidelity")
        return json.loads(out.strip().splitlines()[-1])["f_avg"]

    def closed_loop(self, op, min_ops):
        """Closed loop, one client: ``op(k)`` for k = 0, 1, ... until at
        least ``min_ops`` have run and the next would end after --seconds."""
        start = time.perf_counter()
        records, took = [], []
        while True:
            t0 = time.perf_counter()
            records.append(op(len(records)))
            took.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(records) >= min_ops and elapsed + median(took) > self.seconds:
                return records

    def probes(self):
        out = os.path.join(self.work, "probes.json")
        spans = os.path.join(self.work, "probes.jsonl")
        code, _, _ = self.worker(
            "probes", "--stems", ",".join(spec.probe_stems(self.workload)),
            "--workdir", self.work, "--out", out, "--spans", spans,
            "--run-id", f"{self.tracer.run_id}:probes")
        if code != 0 or not os.path.exists(out):
            self.record(["probe worker failed"])
            return {"counts": {}, "missing": [], "attempted": 0}, []
        with open(out) as fh:
            res = json.load(fh)
        self.attempted += res["attempted"]
        self.failed += len(res["errors"])
        self.errors.extend(res["errors"])
        return res, read_spans(spans)

    # -- workloads -------------------------------------------------------

    def fit_worker(self, fits, spans=None):
        """A fresh worker process: a cold set-up, whose time from spawn to
        ready is one set-up sample, then ``fits`` capped fits (with
        ``spans``, one untraced and one traced fit).  Returns the fits."""
        out = os.path.join(self.work, "fit.json")
        if os.path.exists(out):
            os.remove(out)
        args = ["fit", "--fits", str(fits), "--out", out,
                "--run-id", self.tracer.run_id]
        if spans:
            args += ["--spans", spans]
        spawned = time.perf_counter()
        code, _, _ = self.worker(*args)
        if code != 0 or not os.path.exists(out):
            self.record(["fit worker failed"])
            return []
        with open(out) as fh:
            res = json.load(fh)
        self.setups.append(res["ready"] - spawned)
        if not res["ops"]:
            self.record([])  # the set-up alone was the operation
        for o in res["ops"]:
            self.record([] if o["ok"] else [o["error"]])
        return res["ops"]

    def contract_fit(self):
        if self.trace:
            spans = os.path.join(self.work, "fit-spans.jsonl")
            ops = self.fit_worker(1, spans=spans)
            if os.path.exists(spans):
                self.spans.extend(read_spans(spans))
            return ops
        ops = [o for r in self.closed_loop(lambda k: self.fit_worker(1), 1)
               for o in r]
        good = [o for o in ops if o["ok"]]
        return {
            "op_s": median([o["op_s"] for o in good]),
            "setup_s": self.setup_s(),
            "f_err": median([o["f_err"] for o in good]),
        }, {
            "fit_s": (median([o["fit_s"] for o in good]), "s"),
            "fit_loss": (median([o["fit_loss"] for o in good]), "objective"),
            "fit_f_err": (median([o["f_err"] for o in good]), "fidelity"),
            "ops": (len(ops), "count"),
        }

    def cli_op(self, k, traced=False):
        s = self.sizes
        d = os.path.join(self.work, f"op{k}")
        os.makedirs(d)
        steps = (
            ("simulate", ["simulate", "--gate", "x-gate", "--dim", str(s["dim"]),
                          "--shots", str(s["shots"]), "--seed", str(self.seed),
                          "--probe-grid", "%d,%r" % tuple(s["probe_grid"]),
                          "--wigner-grid", "%d,%r" % tuple(s["wigner_grid"]),
                          "--out", "dataset.json"]),
            ("reconstruct", ["reconstruct", "--data", "dataset.json",
                             "--rank", str(s["rank"]), "--gamma", repr(s["gamma"]),
                             "--dim", str(s["dim"]), "--iters", str(s["cli_iters"]),
                             "--out", "result.json"]),
            ("analyze", ["analyze", "--result", "result.json", "--target", "x-gate",
                         "--out-dir", "reports"]),
        )
        return self.command_op(k, d, steps, traced, self.check_cli)

    def noisy_op(self, k, traced=False):
        s = self.sizes
        d = os.path.join(self.work, f"op{k}")
        os.makedirs(d)
        noise = "%r,%r" % tuple(s["noise"])
        steps = (
            ("budget", ["budget", "--dim", str(s["dim"]), "--noise", noise,
                        "--out", "budget.csv"]),
            ("decode", ["decode-study", "--gate", "x-gate", "--dim", str(s["dim"]),
                        "--noise", noise, "--out-dir", "study"]),
        )
        return self.command_op(k, d, steps, traced, self.check_noisy)

    def command_op(self, k, d, steps, traced, check):
        rec = {"op_s": 0.0, "stdout": {}}
        problems = []
        with self.tracer.span("bench.op") if traced else nullcontext():
            for name, args in steps:
                if not self.trace:
                    self.import_setup()  # spreads the set-up samples over the run
                code, wall, out = self.csqpt(args, d, traced, f"op{k}-{name}")
                rec[f"{name}_s"] = wall
                rec["op_s"] += wall
                rec["stdout"][name] = out
                if code != 0:
                    problems.append(f"{name} exited {code}")
                    break
        if not problems:
            try:
                problems += check(d, rec)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
        rec["hashes"] = file_hashes(d) if not problems else {}
        rec["ok"] = self.record(problems)
        return rec

    def check_cli(self, d, rec):
        s = self.sizes
        problems = []
        with open(os.path.join(d, "dataset.json")) as fh:
            ds = json.load(fh)
        n_p, n_b = s["probe_grid"][0] ** 2, s["wigner_grid"][0] ** 2
        if (ds["schema"] != "csqpt-dataset-v1" or ds["shots"] != s["shots"]
                or len(ds["values"]) != n_p or len(ds["values"][0]) != n_b):
            problems.append("dataset.json does not match the requested dataset")
        with open(os.path.join(d, "result.json")) as fh:
            res = json.load(fh)
        rec["iters"] = res["loss"]["iters_used"]
        if res["schema"] != "csqpt-result-v1" or res["kraus"]["rank"] != s["rank"]:
            problems.append("result.json does not match the requested fit")
        reports = os.path.join(d, "reports")
        for name in ("gtm.csv", "ptm.csv", "poptm.csv"):
            _, rows = read_csv_floats(os.path.join(reports, name))
            if not rows:
                problems.append(f"{name} is empty")
        with open(os.path.join(reports, "fidelity.json")) as fh:
            rec["f_avg"] = json.load(fh)["f_avg"]
        header, rows = read_csv_floats(os.path.join(reports, "sweep.csv"))
        cuts = [int(c) for c in rows]
        if header != ["cut", "f_pro"] or cuts != [c for c in range(2, 11) if c < s["dim"]]:
            problems.append("sweep.csv does not hold the cuts 2..10")
        if any(not 0.0 <= v[0] <= 1.0 for v in rows.values()):
            problems.append("sweep fidelity outside [0, 1]")
        rec["f_err"] = abs(rec["f_avg"] - self.truth)
        return problems

    def check_noisy(self, d, rec):
        problems = []
        _, rows = read_csv_floats(os.path.join(d, "budget.csv"))
        ref = self.sizes["budget_ref"]
        contrib = {label: rows[label][0] for label in ref}
        for label, value in contrib.items():
            if abs(value - ref[label]) > spec.BUDGET_RTOL * ref[label]:
                problems.append(f"{label} contribution {value} is not "
                                f"{ref[label]} within {spec.BUDGET_RTOL:g} relative")
        line = [ln for ln in rec["stdout"]["budget"].splitlines()
                if ln.startswith("baseline infidelity:")][0]
        baseline = float(line.split(":")[1])
        if abs(baseline - (1.0 - self.truth)) > BASELINE_TOL:
            problems.append(f"baseline infidelity {baseline} != 1 - f_avg "
                            f"{1.0 - self.truth} within {BASELINE_TOL}")
        _, decoded = read_csv_floats(os.path.join(d, "study", "decoded_ptm.csv"))
        if any(abs(a - b) > DECODED_TOL for a, b in zip(decoded["I"], (1, 0, 0, 0))):
            problems.append(f"decoded trace row {decoded['I']} is not [1, 0, 0, 0]")
        read_csv_floats(os.path.join(d, "study", "direct_ptm.csv"))
        rec["f_err"] = abs(sum(contrib.values()) - sum(ref.values()))
        return problems

    def command_workload(self, op, min_ops, detail_keys):
        self.truth = self.f_truth()
        records = self.closed_loop(op, min_ops)
        good = [r for r in records if r["ok"]]
        first = good[0]["hashes"] if good else {}
        for r in good[1:]:
            if r["hashes"] != first:
                self.record(["artifacts differ between repeats with the same seed"])
        detail = {key: (median([r[key] for r in good]), "s") for key in detail_keys}
        detail["ops"] = (len(records), "count")
        return {
            "op_s": median([r["op_s"] for r in good]),
            "setup_s": self.setup_s(),
            "f_err": median([r["f_err"] for r in good]),
        }, detail

    def cli_pipeline(self):
        return self.command_workload(
            self.cli_op, 2, ("simulate_s", "reconstruct_s", "analyze_s", "op_s"))

    def noisy_gate(self):
        return self.command_workload(self.noisy_op, 1, ("budget_s", "decode_s"))

    # -- reporting -------------------------------------------------------

    def end_to_end(self):
        body = {spec.CF: self.contract_fit, spec.CLI: self.cli_pipeline,
                spec.NG: self.noisy_gate}[self.workload]
        values, detail = body()
        values["peak_rss_mb"] = peak_rss_mb()
        if self.workload == spec.CLI:
            detail["pipeline_s"] = detail.pop("op_s")
        detail["setup_s"] = (values["setup_s"], "s")
        detail["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        return metrics, {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}

    def per_layer(self):
        if self.workload == spec.CF:
            untraced, traced = self.contract_fit()
        else:
            op = self.cli_op if self.workload == spec.CLI else self.noisy_op
            self.truth = self.f_truth()
            untraced, traced = op(0, traced=False), op(1, traced=True)
        op_spans = list(self.tracer.spans) + self.spans
        probe_res, probe_spans = self.probes()
        if self.workload in (spec.CLI, spec.NG):
            for _ in range(spec.SETUP_REPEATS):
                self.import_setup()
        selfs = self_times(op_spans)
        overhead = (traced.get("op_s", 0.0) - untraced.get("op_s", 0.0)
                    if traced.get("ok") and untraced.get("ok") else 0.0)
        iters = traced.get("iters", 0)
        metrics, missing = {}, []
        for name, unit, source, wls in spec.PER_LAYER:
            st = spec.stem(name)
            scale = spec.UNIT_SCALE.get(unit, 1.0)
            value = None
            if self.workload not in wls:
                value = 0.0
            elif source == "probe":
                if st in probe_res["counts"]:
                    value = probe_res["counts"][st]
                elif st not in probe_res["missing"]:
                    ds = durations(probe_spans, "probe:" + st)
                    value = scale * statistics.median(ds) if ds else None
            elif source == "op":
                ds = durations(op_spans, st)
                value = scale * statistics.median(ds) if ds else None
            elif source == "iter":
                fit = sum(durations(op_spans, "reconstruct.reconstruct"))
                if iters and fit:
                    value = iters if unit == "count" else scale * fit / iters
            elif source == "import":
                value = median(self.setups) if self.setups else None
            elif source == "self":
                value = selfs[st.split(".", 1)[1]]
            elif name == "trace.overhead_s":
                value = overhead
            elif name == "trace.spans":
                value = len(op_spans)
            if value is None:
                missing.append(name)
                metrics[name] = {"value": None, "unit": unit, "missing": True}
            else:
                metrics[name] = {"value": value, "unit": unit}
        self.spans = op_spans + probe_spans
        detail = {"untraced_op_s": untraced.get("op_s"),
                  "traced_op_s": traced.get("op_s"), "missing": missing}
        return metrics, detail


def peak_rss_mb():
    # ru_maxrss of the largest child that has ended, in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment(run):
    env = {"threads": threads(), "nproc": os.cpu_count(), "cpu": cpu_model(),
           "git_sha": git_sha(), "seed": run.seed, "workload": run.workload,
           "seconds": run.seconds, "trace": run.trace}
    code, _, out = run.proc([PY, "-c", VERSIONS_SNIPPET])
    if code == 0:
        env.update(json.loads(out))
    return env


def run_one(a):
    sizes = spec.SIZES["smoke" if a.smoke else "full"]
    run = Run(a.workload, a.seed, a.seconds, bool(a.trace), sizes)
    env = environment(run)
    try:
        metrics, detail = run.per_layer() if run.trace else run.end_to_end()
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        run.record([f"{type(exc).__name__}: {exc}"])
        names = spec.PER_LAYER if run.trace else spec.END_TO_END
        metrics = {n[0]: {"value": 0.0, "unit": n[1]} for n in names}
        detail = {}
    if run.trace:
        spans_path = os.path.join(run.work, "spans.jsonl")
        with open(spans_path, "w") as fh:
            for s in run.spans:
                fh.write(json.dumps(s) + "\n")
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": max(run.attempted, 1), "failed": run.failed,
              "metrics": metrics}
    with open(os.path.join(run.work, "result.json"), "w") as fh:
        json.dump({"env": env, "detail": detail, "errors": run.errors,
                   "result": result}, fh, indent=2)
    for err in run.errors:
        print(f"error: {err}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))


def run_all(a):
    """Every workload once with --trace 0, printed as one table."""
    status = 0
    for workload in spec.ALL:
        argv = [PY, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", "0"] + (["--smoke"] if a.smoke else [])
        p = subprocess.run(argv, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"{workload}: exit {p.returncode}\n{p.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2][len("detail: "):])
        print(f"\n{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in {**detail, **result["metrics"]}.items():
            print(f"  {name:14s} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description="csqpt benchmark")
    p.add_argument("--workload", choices=spec.ALL)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes (dim 10)")
    a = p.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "csqpt", "__init__.py")):
        print(f"error: no csqpt sources under {SRC}", file=sys.stderr)
        return 2
    if a.all:
        return run_all(a)
    if not a.workload:
        p.error("--workload or --all is required")
    run_one(a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
