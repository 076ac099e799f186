"""Tests of the benchmark itself: its contract, tracer and a smoke run.

    python3 -m pytest perfbench -q

The smoke runs use ``--smoke`` (dim 10, a few iterations) and take about
half a minute in total.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import spec
from tracer import Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_spec():
    bench = load_benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(spec.ALL)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in spec.PER_LAYER]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_self_time_subtracts_children_across_processes():
    spans = [
        {"id": "run-1", "parent": None, "name": "bench.cmd:x", "start": 0.0, "end": 10.0},
        {"id": "c-1", "parent": "run-1", "name": "cli.main", "start": 1.0, "end": 9.0},
        {"id": "c-2", "parent": "c-1", "name": "metrics.truncation_sweep",
         "start": 2.0, "end": 8.0},
        {"id": "c-3", "parent": "c-2", "name": "channel.kraus_to_choi",
         "start": 3.0, "end": 4.0},
    ]
    st = self_times(spans)
    assert st["bench"] == pytest.approx(2.0)
    assert st["cli"] == pytest.approx(2.0)
    assert st["metrics"] == pytest.approx(5.0)
    assert st["channel"] == pytest.approx(1.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_tracer_wraps_cross_module_calls_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import csqpt

    original = csqpt.channel.cptp_defect
    tracer = Tracer("t")
    tracer.install()
    try:
        assert csqpt.gates.unitary_channel is csqpt.channel.unitary_channel
        csqpt.gates.noisy_gate_process(csqpt.gates.x_gate_sequence(), None, 12)
    finally:
        tracer.uninstall()
    assert csqpt.channel.cptp_defect is original
    by_id = {s["id"]: s for s in tracer.spans}
    names = [s["name"] for s in tracer.spans]
    assert "gates.noisy_gate_process" in names
    assert "fock.displacement" in names
    defect = next(s for s in tracer.spans if s["name"] == "channel.cptp_defect")
    assert by_id[defect["parent"]]["name"] == "channel.unitary_channel"


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.ALL)
def test_smoke_run_reports_every_metric(workload, trace):
    p = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, p.stderr
    assert result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in expected]
    for (name, unit, *rest), got in zip(expected, result["metrics"].values()):
        assert got == {"value": got["value"], "unit": unit}, name
        assert isinstance(got["value"], (int, float)), name
        if not trace:
            assert got["value"] > 0, name
        elif rest[1] and workload in rest[1] and rest[0] in ("probe", "op", "iter"):
            assert got["value"] > 0, name


def test_run_all_prints_every_metric_by_name():
    p = run_bench("--all", "--smoke", "--seconds", "1")
    assert p.returncode == 0, p.stdout + p.stderr
    for workload in spec.ALL:
        assert f"{workload}: correct=True" in p.stdout
    for name in ("fit_s", "fit_loss", "fit_f_err", "simulate_s", "reconstruct_s",
                 "analyze_s", "pipeline_s", "budget_s", "decode_s", "setup_s",
                 "peak_rss_mb", "op_s", "f_err"):
        assert re.search(rf"^\s+{name}\s", p.stdout, re.M), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        spec.CF, "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
