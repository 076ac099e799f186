import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import csqpt
from csqpt import basis, channel, errors, gates, reconstruct, tomography

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SUBMODULES = ("basis", "channel", "errors", "fock", "gates", "metrics",
              "reconstruct", "tomography")


def test_public_names_resolve_to_their_submodules():
    assert csqpt.__version__ == "0.1.0"
    assert csqpt.__all__ == list(SUBMODULES)
    for name in SUBMODULES:
        assert getattr(csqpt, name).__name__ == f"csqpt.{name}"
    listed = set(dir(csqpt))
    assert listed >= {*SUBMODULES, "__version__"}
    # each public name has one home, csqpt.<module>.<name>: the package
    # reaches none of the functions and classes defined there
    for module in SUBMODULES:
        mod = getattr(csqpt, module)
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) == mod.__name__:
                assert getattr(csqpt, name, None) is not value, name
    with pytest.raises(AttributeError):
        csqpt.KrausSet
    with pytest.raises(AttributeError):
        csqpt.no_such_name
    with pytest.raises(ImportError):
        from csqpt import simulate_dataset  # noqa: F401
    with pytest.raises(ImportError):
        from csqpt import no_such_name  # noqa: F401


def test_errors_has_one_reader_per_kind_of_value():
    # arrays of any shape go through read_numbers, so no second array
    # reader can return
    assert {name for name in vars(errors) if name.startswith("read_")} == {
        "read_json", "read_int", "read_real", "read_numbers", "read_instance"}


def test_channel_imports_no_layer_but_errors():
    # every command loads channel, so its module imports stay few: the
    # dim bound it shares with fock is imported inside the functions
    imported = set()
    for node in ast.parse(inspect.getsource(channel)).body:
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.startswith(".")} == {".errors"}
    assert "math" not in imported


def test_parity_model_is_one_linear_map_and_its_adjoint():
    # the forward model has one constructor (tomography.parity_model) and
    # no second path to the fit's loss or gradient
    assert {name for name in vars(tomography.ParityModel)
            if not name.startswith("_")} == {
        "expect", "image_wigner", "adjoint", "workspace"}
    assert not hasattr(reconstruct, "_loss_terms")


def test_types_holding_arrays_compare_and_hash():
    ch = channel.unitary_channel(np.eye(6))
    ob = basis.logical_ordered_basis(gates.BinomialCode(6))
    gm = basis.gellmann_set(ob)
    probes, grid = tomography.probe_grid(2, 0.5), tomography.wigner_grid(3, 1.0)
    ds = tomography.simulate_dataset(channel.unitary_channel(np.eye(8)), probes, grid)
    seq = gates.x_gate_sequence()
    for s in (seq[1], ch, probes, grid, ds, ob, gm, basis.transfer_matrix(ch, gm)):
        assert s == s and {s} == {s} and hash(s) == hash(s)
    # so do the sequences and sequence channels built on gate steps
    assert isinstance(hash(gates.x_gate_sequence()), int)
    assert seq in {seq, gates.SequenceChannel(seq, None, 6)}


def test_thread_cap_applies_to_numpy_imported_after_the_package():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CSQPT_THREADS"] = "1"
    code = (
        "import os, sys\n"
        "import csqpt\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_every_perfbench_probe_resolves(monkeypatch, tmp_path):
    # the benchmark's worker counts a probe whose function is gone as
    # missing, and one whose call raises as an error, which only its slow
    # traced run would show; so every probe also runs here at smoke sizes
    monkeypatch.syspath_prepend(PERFBENCH)
    names = ("spec", "tracer", "worker")  # the worker's top-level imports
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        worker = importlib.import_module("worker")
        needs = {name for probe in worker.PROBES for name in probe[1]}
        assert needs
        assert [name for name in sorted(needs) if not worker._has(csqpt, name)] == []
        stems = [probe[0] for probe in worker.PROBES]
        sizes = sys.modules["spec"].SIZES["smoke"]
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    out = tmp_path / "probes.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), "probes",
         "--sizes", json.dumps(sizes), "--stems", ",".join(stems),
         "--workdir", str(tmp_path), "--out", str(out),
         "--spans", str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, env=dict(os.environ, CSQPT_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["missing"] == [] and result["errors"] == []
    assert result["attempted"] == len(stems)
