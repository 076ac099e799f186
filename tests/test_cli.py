import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csqpt import channel, gates, metrics, reconstruct, tomography
from csqpt.cli import EMIT_CHOICES, build_parser, main, options
from csqpt.errors import ValidationError

pytestmark = pytest.mark.filterwarnings("ignore::csqpt.errors.TruncationWarning")

np_rng = np.random.default_rng(90210)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r).real)


def write_kraus_json(ks, path):
    with open(path, "w") as fh:
        json.dump(channel.kraus_to_json(ks), fh)
    return str(path)


def write_ideal_x_result(dim, path, u=None):
    """Result file holding the exact ideal-X channel, or the unitary ``u``'s
    (no optimization)."""
    if u is None:
        u = gates.ideal_logical_x_unitary(gates.BinomialCode(dim))
    ks = channel.unitary_channel(u)
    cfg = reconstruct.ReconstructionConfig(rank=1, dim=dim)
    l1 = float(np.sum(np.abs(ks.operators.real)) + np.sum(np.abs(ks.operators.imag)))
    report = reconstruct.LossReport(
        l2=0.0, l1=l1, grad_norm=0.0, history=(cfg.gamma * l1,), stop_reason="grad_tol",
    )
    reconstruct.save_result(ks, report, cfg, str(path))
    return str(path)


def read_csv_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0][1:]
    labels = [row[0] for row in rows[1:]]
    values = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    return header, labels, values


def test_simulate_writes_dataset(tmp_path, capsys):
    gate = write_kraus_json(channel.unitary_channel(np.eye(6, dtype=complex)),
                            tmp_path / "id.json")
    out = tmp_path / "ds.json"
    code = main(["simulate", "--gate", gate, "--dim", "6", "--probe-grid", "3,0.8",
                 "--wigner-grid", "5,1.2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "csqpt-dataset-v1"
    ds = tomography.load_dataset(str(out))
    assert ds.probes.size == 9 and ds.betas.size == 25
    printed = capsys.readouterr().out
    assert "n_probes=9" in printed and "seed: 0" in printed


def test_simulate_builtin_x_gate_default_grids(tmp_path):
    out = tmp_path / "ideal.json"
    assert main(["simulate", "--gate", "x-gate", "--shots", "0",
                 "--out", str(out)]) == 0
    ds = tomography.load_dataset(str(out))
    assert ds.probes.size == 25 and ds.betas.size == 441
    assert ds.dim == 32


def test_simulate_shot_noise_byte_identical(tmp_path):
    gate = write_kraus_json(channel.unitary_channel(random_unitary(6, np_rng)),
                            tmp_path / "u.json")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["simulate", "--gate", gate, "--dim", "6", "--shots", "1000",
                     "--seed", "7", "--probe-grid", "3,0.8", "--wigner-grid", "5,1.2",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_rejects_non_cptp_kraus_file(tmp_path):
    data = channel.kraus_to_json(channel.unitary_channel(np.eye(6, dtype=complex)))
    data["operators"] = (1.05 * np.asarray(data["operators"])).tolist()
    gate = tmp_path / "k.json"
    gate.write_text(json.dumps(data))
    out = tmp_path / "ds.json"
    assert main(["simulate", "--gate", str(gate), "--dim", "6",
                 "--out", str(out)]) == 4
    assert not out.exists()


def test_simulate_probe_corners(tmp_path):
    gate = write_kraus_json(channel.unitary_channel(np.eye(12, dtype=complex)),
                            tmp_path / "id.json")
    out = tmp_path / "ds.json"
    assert main(["simulate", "--gate", gate, "--dim", "12", "--probe-grid", "5,1.5",
                 "--wigner-grid", "3,1.0", "--out", str(out)]) == 0
    ds = tomography.load_dataset(str(out))
    corners = {complex(-1.5, -1.5), complex(-1.5, 1.5),
               complex(1.5, -1.5), complex(1.5, 1.5)}
    assert corners <= set(map(complex, ds.probes))


def test_simulate_sequence_with_noise(tmp_path):
    seq = {"steps": [{"type": "displace", "alpha": [0.3, 0.0], "duration": 0.1},
                     {"type": "snap", "thetas": [0.0, 3.14159, 0.0], "duration": 0.7}]}
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(seq))
    out = tmp_path / "ds.json"
    assert main(["simulate", "--gate", str(seq_path), "--dim", "8", "--noise", "100,150",
                 "--probe-grid", "3,0.5", "--wigner-grid", "3,0.8",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["schema"] == "csqpt-dataset-v1"


def test_simulate_bad_inputs(tmp_path):
    gate = write_kraus_json(channel.unitary_channel(np.eye(6, dtype=complex)),
                            tmp_path / "id.json")
    # noise cannot apply to a Kraus file (no durations)
    assert main(["simulate", "--gate", gate, "--dim", "6", "--noise", "100,150",
                 "--out", str(tmp_path / "x.json")]) == 3
    assert main(["simulate", "--gate", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.json")]) == 3
    assert main(["simulate", "--gate", gate, "--dim", "6", "--probe-grid", "nope",
                 "--out", str(tmp_path / "x.json")]) == 3
    assert main(["simulate", "--gate", gate, "--dim", "6", "--noise", "100",
                 "--out", str(tmp_path / "x.json")]) == 3
    not_a_gate = tmp_path / "neither.json"
    not_a_gate.write_text("{\"foo\": 1}")
    assert main(["simulate", "--gate", str(not_a_gate),
                 "--out", str(tmp_path / "x.json")]) == 3
    # a negative seed is refused, also where no shot is drawn
    for shots in ("10", "0"):
        assert main(["simulate", "--gate", gate, "--dim", "6", "--shots", shots,
                     "--seed", "-1", "--out", str(tmp_path / "x.json")]) == 3
    # and a shot count past the int64 that the binomial draw takes
    assert main(["simulate", "--gate", gate, "--dim", "6", "--shots", str(2**63),
                 "--out", str(tmp_path / "x.json")]) == 3
    assert not (tmp_path / "x.json").exists()
    # so is any count that is not a whole number >= 0, also from the library
    ident = channel.unitary_channel(np.eye(6, dtype=complex))
    pg, wg = tomography.probe_grid(2, 0.5), tomography.wigner_grid(3, 1.0)
    for bad in (dict(shots=-1), dict(seed=-1), dict(shots=2.5), dict(shots=True),
                dict(seed=1.5), dict(seed=True), dict(shots=10, seed=0.5),
                dict(shots=2**63)):
        with pytest.raises(ValidationError):
            tomography.simulate_dataset(ident, pg, wg, **bad)


def small_dataset(tmp_path, dim=6, shots=0):
    u = random_unitary(dim, np.random.default_rng(11))
    gate = write_kraus_json(channel.unitary_channel(u), tmp_path / "truth.json")
    out = tmp_path / f"ds_{shots}.json"
    assert main(["simulate", "--gate", gate, "--dim", str(dim), "--shots", str(shots),
                 "--seed", "3", "--probe-grid", "3,0.8", "--wigner-grid", "7,1.2",
                 "--out", str(out)]) == 0
    return str(out)


def test_reconstruct_cli_noiseless(tmp_path, capsys):
    ds_path = small_dataset(tmp_path)
    out = tmp_path / "res.json"
    code = main(["reconstruct", "--data", ds_path, "--rank", "1", "--dim", "6",
                 "--gamma", "0", "--iters", "500", "--out", str(out)])
    assert code == 0
    ks, report, cfg = reconstruct.load_result(str(out))
    assert json.loads(out.read_text())["schema"] == "csqpt-result-v1"
    # noiseless data, exact model class: near-zero residual
    assert report.l2 <= 1e-6 * (9 * 49)
    assert channel.cptp_defect(ks.operators) <= 1e-6
    assert "wrote" in capsys.readouterr().out


def test_reconstruct_gamma_promotes_sparsity(tmp_path):
    ds_path = small_dataset(tmp_path, shots=400)
    counts = {}
    for gamma in ("0", "4e-4"):
        out = tmp_path / f"res_{gamma}.json"
        assert main(["reconstruct", "--data", ds_path, "--rank", "2", "--dim", "6",
                     "--gamma", gamma, "--iters", "400", "--out", str(out)]) == 0
        ks, _, _ = reconstruct.load_result(str(out))
        flat = np.concatenate([ks.operators.real.ravel(), ks.operators.imag.ravel()])
        counts[gamma] = int(np.sum(np.abs(flat) < 1e-6))
    assert counts["4e-4"] >= counts["0"]


def test_reconstruct_missing_data_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["reconstruct", "--out", str(tmp_path / "r.json")])
    assert err.value.code == 2


def test_reconstruct_nonconvergence_warns_but_exits_zero(tmp_path, capsys):
    ds_path = small_dataset(tmp_path)
    out = tmp_path / "res.json"
    assert main(["reconstruct", "--data", ds_path, "--rank", "1", "--dim", "6",
                 "--iters", "3", "--out", str(out)]) == 0
    _, report, _ = reconstruct.load_result(str(out))
    assert not report.converged
    assert report.stop_reason == "max_iters"
    err = capsys.readouterr().err
    assert "warning: no convergence: reached the cap of 3 iterations" in err

    # a step below the floor stops at once, and the warning says so
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"step_size": 1e-15}))
    assert main(["reconstruct", "--config", str(cfg_path), "--data", ds_path,
                 "--rank", "1", "--dim", "6", "--out", str(out)]) == 0
    assert reconstruct.load_result(str(out))[1].stop_reason == "line_search_floor"
    err = capsys.readouterr().err
    assert "line search hit the step floor after 0 iterations" in err


def test_analyze_ideal_x_emits(tmp_path, capsys):
    res = write_ideal_x_result(8, tmp_path / "res.json")
    out_dir = tmp_path / "reports"
    code = main(["analyze", "--result", res, "--out-dir", str(out_dir)])
    assert code == 0
    header, labels, ptm = read_csv_matrix(out_dir / "ptm.csv")
    assert header == ["I", "X", "Y", "Z"] and labels == ["I", "X", "Y", "Z"]
    assert np.abs(ptm - np.diag([1.0, 1.0, -1.0, -1.0])).max() < 1e-10
    fid = json.loads((out_dir / "fidelity.json").read_text())
    assert abs(fid["f_avg"] - 1.0) < 1e-12
    assert abs(fid["leakage"]) < 1e-12
    _, _, pop = read_csv_matrix(out_dir / "poptm.csv")
    assert pop.shape == (6, 6)
    sweep_lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert sweep_lines[0] == "cut,f_pro"
    cuts = [int(line.split(",")[0]) for line in sweep_lines[1:]]
    fids = [float(line.split(",")[1]) for line in sweep_lines[1:]]
    # cuts are clamped below the result's truncation (dim 8 here)
    assert cuts == list(range(2, 8))
    # exact channel: no truncation decline anywhere
    assert min(fids) > 1 - 1e-9
    gtm_header, _, gtm = read_csv_matrix(out_dir / "gtm.csv")
    assert gtm.shape == (len(gtm_header), len(gtm_header))
    assert "f_avg=1.000000" in capsys.readouterr().out


def test_analyze_emit_selection(tmp_path):
    res = write_ideal_x_result(8, tmp_path / "res.json")
    out_dir = tmp_path / "only_ptm"
    assert main(["analyze", "--result", res, "--emit", "ptm",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "ptm.csv").exists()
    assert not (out_dir / "gtm.csv").exists()


def test_analyze_target_errors(tmp_path, capsys):
    res = write_ideal_x_result(8, tmp_path / "res.json")
    two_kraus = channel.random_channel(8, 2, np.random.default_rng(0))
    target = write_kraus_json(two_kraus, tmp_path / "t2.json")
    assert main(["analyze", "--result", res, "--target", target,
                 "--out-dir", str(tmp_path / "o1")]) == 3
    wrong_dim = write_kraus_json(channel.unitary_channel(np.eye(6, dtype=complex)),
                                 tmp_path / "t6.json")
    assert main(["analyze", "--result", res, "--target", wrong_dim,
                 "--out-dir", str(tmp_path / "o2")]) == 3
    # a rank-1 target with defect 1e-7 loads as a certified channel but is
    # no unitary
    loose = channel.KrausSet((1 + 1e-7 / (2 * np.sqrt(8))) * np.eye(8)[None])
    assert loose.certified and 9e-8 < channel.cptp_defect(loose.operators) < 1.1e-7
    capsys.readouterr()
    assert main(["analyze", "--result", res, "--target",
                 write_kraus_json(loose, tmp_path / "loose.json"),
                 "--out-dir", str(tmp_path / "o3")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not an isometry" in err[0]


def test_analyze_custom_targets(tmp_path):
    # the X sequence as a sequence file, and its composed unitary as a
    # rank-1 Kraus file: its SNAP steps carry 10 phases, so dim >= 10
    dim = 10
    steps = [{"type": "displace", "alpha": [gates.X_GATE_BETAS[0], 0.0],
              "duration": gates.DISPLACEMENT_DURATION}]
    for theta, beta in zip(gates.X_GATE_THETAS, gates.X_GATE_BETAS[1:]):
        steps += [{"type": "snap", "thetas": list(theta),
                   "duration": gates.SNAP_DURATION},
                  {"type": "displace", "alpha": [beta, 0.0],
                   "duration": gates.DISPLACEMENT_DURATION}]
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"steps": steps}))
    u = gates.compose_unitary(gates.x_gate_sequence(), dim)
    # a complex result, so that a conjugated target would change the report
    res = write_ideal_x_result(dim, tmp_path / "res.json", u)
    kraus = write_kraus_json(channel.unitary_channel(u), tmp_path / "u.json")
    targets = {"seq": str(seq), "kraus": kraus}
    code = gates.BinomialCode(dim)
    ks = reconstruct.load_result(res)[0]
    want = dataclasses.asdict(metrics.avg_gate_fidelity(
        ks, code.projector() @ u @ code.projector(), code))
    reports = {}
    for name, target in targets.items():
        out_dir = tmp_path / name
        assert main(["analyze", "--result", res, "--target", target,
                     "--out-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "fidelity.json").read_text()) == want
        reports[name] = {f: (out_dir / f).read_bytes() for f in os.listdir(out_dir)}
    assert len(reports["seq"]) == len(EMIT_CHOICES)
    assert reports["seq"] == reports["kraus"]


def test_analyze_non_cptp_result_is_numerical_failure(tmp_path):
    res_path = tmp_path / "broken.json"
    good = write_ideal_x_result(8, tmp_path / "good.json")
    data = json.loads(Path(good).read_text())
    # scale the single Kraus operator: breaks the CPTP certificate
    for row in data["kraus"]["operators"][0]:
        for pair in row:
            pair[0] *= 2.0
    res_path.write_text(json.dumps(data))
    assert main(["analyze", "--result", str(res_path),
                 "--out-dir", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("block, key, value", [
    ("loss", "converged", "false"),
    ("loss", "iters_used", 2.5),
    ("loss", "iters_used", "30"),
    ("config", "rank", True),
    # parts that disagree with a one-entry history and a rank-1, dim-8 block
    ("loss", "iters_used", 99),
    ("config", "dim", 32),
    ("config", "rank", 2),
])
def test_analyze_loose_result_field_is_data_error(tmp_path, capsys, block, key, value):
    data = json.loads(Path(write_ideal_x_result(8, tmp_path / "good.json")).read_text())
    data[block][key] = value
    res_path = tmp_path / "loose.json"
    res_path.write_text(json.dumps(data))
    out_dir = tmp_path / "o"
    assert main(["analyze", "--result", str(res_path), "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not out_dir.exists()


def test_file_schemas_keep_their_v1_keys(tmp_path):
    # the keys, in order, that README's "File schemas" section documents: a
    # field added to a dataclass must not reach a v1 file unnoticed
    ds_path = small_dataset(tmp_path)
    out = tmp_path / "res.json"
    assert main(["reconstruct", "--data", ds_path, "--rank", "1", "--dim", "6",
                 "--iters", "2", "--out", str(out)]) == 0
    dataset = json.loads(Path(ds_path).read_text())
    assert list(dataset) == ["schema", "dim", "shots", "seed", "normalized",
                             "probes", "betas", "values"]
    result = json.loads(out.read_text())
    assert list(result) == ["schema", "config", "kraus", "loss", "history"]
    assert list(result["config"]) == ["rank", "dim", "gamma", "max_iters",
                                      "step_size", "grad_tol", "seed", "init"]
    assert list(result["kraus"]) == ["dim", "rank", "operators"]
    assert list(result["loss"]) == ["l2", "l1", "total", "grad_norm", "iters_used",
                                    "converged", "stop_reason"]


def test_artifacts_end_their_lines_in_newline(tmp_path):
    # every file a command writes, the CSV matrices included, ends its
    # lines in "\n" alone
    res = tmp_path / "res.json"
    assert main(["reconstruct", "--data", small_dataset(tmp_path), "--rank", "1",
                 "--dim", "6", "--iters", "2", "--out", str(res)]) == 0
    assert main(["analyze", "--result", write_ideal_x_result(8, tmp_path / "x.json"),
                 "--out-dir", str(tmp_path / "an")]) == 0
    assert main(["budget", "--dim", "12", "--out", str(tmp_path / "budget.csv")]) == 0
    assert main(["decode-study", "--dim", "12", "--noise", "315,478",
                 "--out-dir", str(tmp_path / "study")]) == 0
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert {p.name for p in files} >= {
        "ds_0.json", "res.json", "gtm.csv", "ptm.csv", "poptm.csv", "fidelity.json",
        "sweep.csv", "budget.csv", "decoded_ptm.csv", "direct_ptm.csv"}
    for p in files:
        assert b"\r" not in p.read_bytes(), p.name


def test_budget_without_decoherence(tmp_path, capsys):
    out = tmp_path / "budget.csv"
    code = main(["budget", "--dim", "16", "--noise", "inf,inf", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "channel,contribution"
    table = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert set(table) == {"photon-loss", "pure-dephasing"}
    assert abs(table["photon-loss"]) < 1e-9
    assert abs(table["pure-dephasing"]) < 1e-9
    assert "baseline infidelity:" in capsys.readouterr().out


def test_decode_study_on_leaky_channel(tmp_path, capsys):
    dim = 8
    code = gates.BinomialCode(dim)
    theta = np.arcsin(np.sqrt(0.08))
    u = np.eye(dim, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    for a, b in ((code.zero_l, code.error_vec),):
        pa, pb = np.outer(a, a.conj()), np.outer(b, b.conj())
        u = u + (c - 1) * (pa + pb) + s * (np.outer(b, a.conj()) - np.outer(a, b.conj()))
    gate = write_kraus_json(channel.unitary_channel(u), tmp_path / "leaky.json")
    out_dir = tmp_path / "study"
    assert main(["decode-study", "--gate", gate, "--dim", str(dim),
                 "--out-dir", str(out_dir)]) == 0
    _, _, decoded = read_csv_matrix(out_dir / "decoded_ptm.csv")
    _, _, direct = read_csv_matrix(out_dir / "direct_ptm.csv")
    assert np.abs(decoded[0] - np.array([1.0, 0, 0, 0])).max() < 1e-10
    assert abs((1.0 - direct[0, 0]) - 0.04) < 1e-6  # half the rotation hits 0_L
    assert "deficit" in capsys.readouterr().out


NON_FINITE_STEPS = (
    '{"type":"displace","alpha":[0.61,0],"duration":NaN}',
    '{"type":"displace","alpha":[0.61,0],"duration":Infinity}',
    '{"type":"snap","thetas":[0.1,NaN],"duration":0.7}',
)


@pytest.mark.parametrize("text, why", [
    *(pytest.param('{"steps":[' + step + ']}', "finite", id=step)
      for step in NON_FINITE_STEPS),
    pytest.param("5", "neither a sequence nor a Kraus", id="number"),
    pytest.param('{"steps":5}', "must be a list", id="steps-number"),
    pytest.param('{"steps":[1]}', "not an object", id="step-number"),
])
def test_non_finite_gate_sequence_is_data_error(tmp_path, capsys, text, why):
    # json parses NaN and Infinity; such a sequence, or a file of the wrong
    # JSON shape, is refused before any simulation, with one error line and
    # no output file
    seq = tmp_path / "seq.json"
    seq.write_text(text)
    out_dir, out = tmp_path / "study", tmp_path / "ds.json"
    for argv in (["decode-study", "--gate", str(seq), "--dim", "12",
                  "--noise", "315,478", "--out-dir", str(out_dir)],
                 ["simulate", "--gate", str(seq), "--dim", "12",
                  "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and why in err[0], err
    assert not out_dir.exists() and not out.exists()


def test_config_file_merge(tmp_path, capsys):
    gate = write_kraus_json(channel.unitary_channel(np.eye(6, dtype=complex)),
                            tmp_path / "id.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gate": gate, "dim": 6, "probe_grid": "3,0.8",
                                    "wigner_grid": "3,1.0", "shots": 50}))
    out_a = tmp_path / "a.json"
    assert main(["simulate", "--config", str(cfg_path), "--shots", "0",
                 "--out", str(out_a)]) == 0
    ds = tomography.load_dataset(str(out_a))
    # flag overrode the config file: exact values, not 50-shot noise
    exact = tomography.simulate_dataset(
        channel.unitary_channel(np.eye(6, dtype=complex)),
        tomography.probe_grid(3, 0.8), tomography.wigner_grid(3, 1.0))
    assert np.abs(ds.values - exact.values).max() < 1e-12

    # an unknown key, or a key that only a flag may give, is refused with
    # one error line naming it, even when the flag is given too
    bad = tmp_path / "bad.json"
    for key, argv in (("shotz", ["simulate"]),
                      ("data", ["reconstruct", "--data", str(out_a)])):
        bad.write_text(json.dumps({key: "nonexistent.json"}))
        capsys.readouterr()
        assert main(argv + ["--config", str(bad), "--out", str(tmp_path / "x.json")]) == 3
        assert capsys.readouterr().err == f"error: unknown config keys ['{key}']\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, text, message", [
    ("simulate", "[1, 2]", "config file must hold a JSON object"),
    ("analyze", '{"emit": ["bogus"]}',
     "bad emit ['bogus']: unknown emit kinds ['bogus']"),
])
def test_config_refusals_are_one_data_error(tmp_path, capsys, command, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--out", str(out)]
    else:
        res = write_ideal_x_result(8, tmp_path / "res.json")
        argv = ["analyze", "--result", res, "--out-dir", str(out)]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == before


def simulate_flags(tmp_path, skip=()):
    """Flags for a small identity-gate simulate run, minus the keys in skip."""
    gate = write_kraus_json(channel.unitary_channel(np.eye(6, dtype=complex)),
                            tmp_path / "id.json")
    flags = {"gate": gate, "dim": "6", "probe_grid": "3,0.8", "wigner_grid": "3,1.0"}
    argv = ["simulate"]
    for key, value in flags.items():
        if key not in skip:
            argv += ["--" + key.replace("_", "-"), value]
    return argv


MALFORMED = [
    ("simulate", {"dim": "abc"}),
    ("simulate", {"dim": None}),
    ("simulate", {"dim": True}),
    ("simulate", {"seed": "x"}),
    ("simulate", {"shots": 1.7}),
    ("simulate", {"probe_grid": [3]}),
    ("simulate", {"noise": "a,b"}),
    ("reconstruct", {"gamma": "x"}),
    ("reconstruct", {"iters": 2.5}),
    ("reconstruct", {"step_size": None}),
]


@pytest.mark.parametrize("command, bad", MALFORMED,
                         ids=[f"{c}-{json.dumps(b)}" for c, b in MALFORMED])
def test_malformed_config_value_is_data_error(tmp_path, capsys, command, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    if command == "simulate":
        argv = simulate_flags(tmp_path, skip=bad)
    else:
        argv = ["reconstruct", "--data", small_dataset(tmp_path), "--rank", "1",
                "--dim", "6"]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 3
    (key,) = bad
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith((f"error: bad {key} ", f"error: {key} must not be null"))
    assert not out.exists()


def test_config_values_convert_like_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"shots": "5", "noise": None}))
    out = tmp_path / "ds.json"
    assert main(simulate_flags(tmp_path) + ["--config", str(cfg_path),
                                            "--out", str(out)]) == 0
    assert tomography.load_dataset(str(out)).shots == 5
    assert '"shots": 5,' in capsys.readouterr().out

    res = write_ideal_x_result(8, tmp_path / "res.json")
    cfg_path.write_text(json.dumps({"emit": "ptm"}))
    out_dir = tmp_path / "reports"
    assert main(["analyze", "--config", str(cfg_path), "--result", res,
                 "--out-dir", str(out_dir)]) == 0
    assert os.listdir(out_dir) == ["ptm.csv"]


def test_malformed_number_flag_is_usage_error(tmp_path):
    for argv in (["simulate", "--dim", "abc"], ["simulate", "--shots", "1.5"],
                 ["reconstruct", "--data", "d.json", "--gamma", "x"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "x.json")])
        assert err.value.code == 2
    assert not (tmp_path / "x.json").exists()


# Every flag of every subcommand with the default its help names (None:
# a required flag); --config and --help come on top.
FLAGS = {
    "simulate": {"--gate": "x-gate", "--dim": "32", "--shots": "0", "--seed": "0",
                 "--probe-grid": "5,1.5", "--wigner-grid": "21,2.62",
                 "--noise": "none", "--out": "dataset.json"},
    "reconstruct": {"--data": None, "--rank": "4", "--dim": "32", "--gamma": "0.0004",
                    "--iters": "2000", "--seed": "0", "--out": "result.json"},
    "analyze": {"--result": None, "--target": "x-gate", "--emit": "none",
                "--out-dir": "."},
    "budget": {"--dim": "32", "--noise": "315,478", "--out": "budget.csv"},
    "decode-study": {"--gate": "x-gate", "--dim": "32", "--noise": "none",
                     "--out-dir": "."},
}


def test_flags_and_their_defaults_are_pinned():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert list(commands) == list(FLAGS)
    for command, flags in FLAGS.items():
        actions = {a.option_strings[-1]: a for a in commands[command]._actions}
        assert set(actions) == {"--help", "--config", *flags}
        for flag, default in flags.items():
            if default is None:
                assert actions[flag].required
            else:
                assert f"(default {default})" in actions[flag].help
    emit = {a.option_strings[-1]: a for a in commands["analyze"]._actions}["--emit"]
    assert tuple(emit.choices) == EMIT_CHOICES
    assert parser.parse_args(["analyze", "--result", "r", "--emit", "ptm",
                              "--emit", "gtm"]).emit == ["ptm", "gtm"]


@pytest.mark.parametrize("command", FLAGS)
def test_help_shows_every_flag_with_its_default(command, capsys):
    # the help main prints, whose parser flags the invoked subcommand only
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    flags = {"--" + key.replace("_", "-")
             for key, _, _, about in options(command) if about is not None}
    assert flags == set(FLAGS[command])
    for flag, default in FLAGS[command].items():
        if default is None:  # required: named in the usage, not in brackets
            assert f" {flag} " in text and f"[{flag} " not in text, flag
        else:
            shown = re.escape(f"(default {default})")
            assert re.search(rf" {flag} [^(]*{shown}", text), flag


def test_reconstruct_defaults_are_the_library_defaults(tmp_path, capsys):
    # the data file is missing, so the run stops after printing its config
    assert main(["reconstruct", "--data", str(tmp_path / "missing.json")]) == 3
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("config: "))
    resolved = json.loads(line[len("config: "):])
    expected = dataclasses.asdict(reconstruct.ReconstructionConfig())
    expected["iters"] = expected.pop("max_iters")
    assert {k: v for k, v in resolved.items() if k not in ("data", "out")} == expected


def test_reconstruct_rejects_normalized_dataset(tmp_path, capsys):
    data = json.loads(Path(small_dataset(tmp_path)).read_text())
    assert data["normalized"] is False
    data["normalized"] = True
    ds_path = tmp_path / "normalized.json"
    ds_path.write_text(json.dumps(data))
    out = tmp_path / "res.json"
    assert main(["reconstruct", "--data", str(ds_path), "--rank", "1", "--dim", "6",
                 "--out", str(out)]) == 3
    assert "normalized" in capsys.readouterr().err
    assert not out.exists()
    # so is a hand-written dataset with negative shots and seed
    data.update(normalized=False, shots=-5, seed=-3)
    ds_path.write_text(json.dumps(data))
    assert main(["reconstruct", "--data", str(ds_path), "--rank", "1", "--dim", "6",
                 "--out", str(out)]) == 3
    assert "shots must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()
    # so is a shot count too large for the int64 of a binomial draw
    data.update(shots=10**400, seed=0)
    ds_path.write_text(json.dumps(data))
    assert main(["reconstruct", "--data", str(ds_path), "--rank", "1", "--dim", "6",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: dataset shots must be an integer >= 0 and <= 9223372036854775807")
    assert not out.exists()
    # so is a negative init seed, with an error line and no traceback
    assert main(["reconstruct", "--data", small_dataset(tmp_path), "--rank", "1",
                 "--dim", "6", "--seed", "-1", "--out", str(out)]) == 3
    assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, row, value", [
    ("betas", 4, [float("nan"), 0.0]),
    ("probes", 1, [0.2, float("inf")]),
])
def test_reconstruct_rejects_non_finite_grid(tmp_path, capsys, field, row, value):
    # a NaN beta or an infinite probe is a data error: no fit, no result
    data = json.loads(Path(small_dataset(tmp_path)).read_text())
    data[field][row] = value
    ds_path = tmp_path / "bad.json"
    ds_path.write_text(json.dumps(data))
    out = tmp_path / "res.json"
    assert main(["reconstruct", "--data", str(ds_path), "--rank", "1", "--dim", "6",
                 "--iters", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: dataset {field} has a non-finite entry"]
    assert not out.exists()


@pytest.mark.parametrize("command, size, alpha", [
    ("simulate", "40", "56.57"),  # the first probe is the corner -40(1 + i)
    ("simulate", "1e200", "1.414e+200"),
    ("reconstruct", 40.0, "40"),
    ("reconstruct", 1e200, "1e+200"),
])
def test_unrepresentable_probe_is_data_error(tmp_path, capsys, command, size, alpha):
    # a probe whose truncated coherent state underflows (or whose |alpha|^2
    # overflows) is refused before any warning: one error line, no file
    if command == "simulate":
        gate = write_kraus_json(channel.unitary_channel(np.eye(6, dtype=complex)),
                                tmp_path / "id.json")
        argv = ["simulate", "--gate", gate, "--dim", "6", "--probe-grid", f"3,{size}"]
    else:
        data = json.loads(Path(small_dataset(tmp_path)).read_text())
        data["probes"][0] = [size, 0.0]
        ds_path = tmp_path / "far.json"
        ds_path.write_text(json.dumps(data))
        argv = ["reconstruct", "--data", str(ds_path), "--rank", "1", "--dim", "6",
                "--iters", "3"]
    out = tmp_path / "out.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: no coherent state with |alpha|={alpha} is representable "
                   "at dim=6: its kept probability underflows"]
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, what", [
    ("simulate", "--dim", "99999999999999999999", "dim"),
    ("simulate", "--dim", "40000", "dim"),
    ("simulate", "--probe-grid", "100000,1", "grid"),
    ("simulate", "--wigner-grid", "100000,1", "grid"),
    ("reconstruct", "--rank", str(10**13), "rank"),
    ("budget", "--dim", "99999999999999999999", "dim"),
])
def test_size_beyond_its_bound_is_one_data_error(tmp_path, capsys, command, flag,
                                                 value, what):
    # each would need an array of more than 2^50 bytes; the bound refuses
    # it before anything is allocated
    out = tmp_path / "out"
    argv = [command, flag, value, "--out", str(out)]
    if command == "reconstruct":
        argv += ["--data", small_dataset(tmp_path, dim=12), "--dim", "12"]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {what}"), err
    assert not out.exists()


def test_out_of_memory_is_one_data_error(tmp_path, capsys, monkeypatch):
    # a size within the bounds that the machine cannot map: 2^51 bytes is
    # past any address space, so nothing is paged in
    def unmappable(*args, **kwargs):
        return np.empty(2**51, np.uint8)

    monkeypatch.setattr(tomography, "simulate_dataset", unmappable)
    out = tmp_path / "ds.json"
    capsys.readouterr()
    assert main(["simulate", "--dim", "6", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: "), err
    assert not out.exists()


INT, REAL, BOOL, STR = "int", "real", "bool", "str"


def wrong_values(kind, config):
    """Values of the wrong JSON type for a field of this kind: a bool, a
    numeric string, a fraction or a whole-looking float for an integer,
    NaN or an infinity.  A --config number may be numeric text (it converts
    as a flag does) and noise may be infinite, so a config field gets
    neither."""
    nan, inf = float("nan"), float("inf")
    values = {
        INT: [True, "6", 6.5, 6 + 2**-40, nan, inf],
        REAL: [False, "0.5", nan, -inf],
        BOOL: [0, "false", "1", nan],
        STR: [True, 5, nan],
    }[kind]
    if config:
        values = [v for v in values if not isinstance(v, str) and abs(v) != inf]
    return values


# The fields of each typed file that a mutation may replace, as (path in
# the JSON, kind); a path ending in list indices names one array entry.
TYPED_FIELDS = {
    "dataset": [
        (("schema",), STR), (("dim",), INT), (("shots",), INT), (("seed",), INT),
        (("normalized",), BOOL), (("probes", 0, 0), REAL), (("probes", -1, 1), REAL),
        (("betas", 0, 1), REAL), (("betas", -1, 0), REAL),
        (("values", 0, 0), REAL), (("values", -1, -1), REAL),
    ],
    "result": [
        (("schema",), STR),
        *((("config", k), INT) for k in ("rank", "dim", "max_iters", "seed")),
        *((("config", k), REAL) for k in ("gamma", "step_size", "grad_tol")),
        (("config", "init"), STR), (("kraus", "dim"), INT), (("kraus", "rank"), INT),
        (("kraus", "operators", 0, 0, 0, 0), REAL),
        (("kraus", "operators", -1, -1, -1, 1), REAL),
        *((("loss", k), REAL) for k in ("l2", "l1", "total", "grad_norm")),
        (("loss", "iters_used"), INT), (("loss", "converged"), BOOL),
        (("loss", "stop_reason"), STR), (("history", 0), REAL),
    ],
    "kraus": [
        (("dim",), INT), (("rank",), INT),
        (("operators", 0, 0, 0, 0), REAL), (("operators", 0, 5, 4, 1), REAL),
    ],
    "sequence": [
        (("steps", 0, "type"), STR), (("steps", 0, "alpha", 0), REAL),
        (("steps", 0, "alpha", 1), REAL), (("steps", 0, "duration"), REAL),
        (("steps", 1, "thetas", -1), REAL), (("steps", 1, "duration"), REAL),
    ],
    "config": [
        (("gate",), STR), (("dim",), INT), (("shots",), INT), (("seed",), INT),
        (("probe_grid", 0), INT), (("probe_grid", 1), REAL),
        (("wigner_grid", 0), INT), (("wigner_grid", 1), REAL),
        (("noise", 0), REAL), (("noise", 1), REAL), (("out",), STR),
    ],
}


def typed_files(tmp_path):
    """name -> (valid JSON, argv of the command that reads it) for a dim-6
    dataset, result, Kraus file, gate sequence and --config file, each
    written to ``tmp_path / f"{name}.json"``."""
    ident = channel.unitary_channel(np.eye(6, dtype=complex))
    ds = tomography.simulate_dataset(ident, tomography.probe_grid(2, 0.5),
                                     tomography.wigner_grid(3, 1.0), shots=100, seed=1)
    report = reconstruct.LossReport(
        l2=0.0, l1=6.0, grad_norm=0.0, history=(0.0024,), stop_reason="grad_tol")
    path = {name: str(tmp_path / f"{name}.json") for name in TYPED_FIELDS}
    out = str(tmp_path / "out.json")
    grids = ["--dim", "6", "--probe-grid", "2,0.5", "--wigner-grid", "3,1.0",
             "--out", out]
    steps = [{"type": "displace", "alpha": [0.3, -0.1], "duration": 0.1},
             {"type": "snap", "thetas": [0.1, 0.2, 0.3], "duration": 0.7}]
    files = {
        "dataset": (tomography.dataset_to_json(ds),
                    ["reconstruct", "--data", path["dataset"], "--rank", "1",
                     "--dim", "6", "--iters", "1", "--out", out]),
        "result": (reconstruct.result_to_json(
                       ident, report, reconstruct.ReconstructionConfig(rank=1, dim=6)),
                   ["analyze", "--result", path["result"], "--emit", "ptm",
                    "--out-dir", str(tmp_path / "reports")]),
        "kraus": (channel.kraus_to_json(ident),
                  ["simulate", "--gate", path["kraus"], *grids]),
        "sequence": ({"steps": steps}, ["simulate", "--gate", path["sequence"], *grids]),
        "config": ({"gate": path["sequence"], "dim": 6, "shots": 5, "seed": 1,
                    "probe_grid": [2, 0.5], "wigner_grid": [3, 1.0],
                    "noise": [315, 478], "out": out},
                   ["simulate", "--config", path["config"]]),
    }
    for name, (data, _) in files.items():
        with open(path[name], "w") as fh:
            json.dump(data, fh)
    return files


def test_typed_files_are_valid(tmp_path):
    for name, (_, argv) in typed_files(tmp_path).items():
        assert main(argv) == 0, name


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_wrong_json_type_is_one_data_error(tmp_path, capsys, data):
    # every value of every file csqpt reads passes one typed rule: a field
    # or array entry replaced by a value of the wrong JSON type stops the
    # reading command with exit 3 and one error line, never a run or a
    # traceback
    name = data.draw(st.sampled_from(sorted(TYPED_FIELDS)), label="file")
    path, kind = data.draw(st.sampled_from(TYPED_FIELDS[name]), label="field")
    value = data.draw(st.sampled_from(wrong_values(kind, name == "config")),
                      label="value")
    mutated, argv = typed_files(tmp_path)[name]
    node = mutated
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with open(tmp_path / f"{name}.json", "w") as fh:
        json.dump(mutated, fh)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_console_entry_point():
    env = dict(os.environ, CSQPT_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "csqpt", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "decode-study" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_not_an_error(tmp_path, unbuffered):
    # `csqpt budget ... | head -1`: the reader leaves after the first line;
    # the run must still write its file, print no error and exit 0
    out = tmp_path / "b.csv"
    env = dict(os.environ, CSQPT_THREADS="1", PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "csqpt", "budget", "--dim", "12",
         "--noise", "inf,inf", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"command: budget\n"
    proc.stdout.close()
    err = proc.stderr.read().decode().lower()
    proc.stderr.close()
    assert proc.wait() == 0, err
    assert "error" not in err and "broken pipe" not in err
    assert out.read_text().startswith("channel,contribution\n")


def test_commands_do_not_import_scipy(tmp_path):
    # numpy is the only runtime dependency: a simulate, a short fit and a
    # noisy budget run in a fresh interpreter must leave no scipy module
    # loaded, nor numpy.polynomial (the quadrature is one eigh)
    ds, budget = str(tmp_path / "ds.json"), str(tmp_path / "budget.csv")
    res = str(tmp_path / "res.json")
    code = (
        "import sys\n"
        "from csqpt.cli import main\n"
        f"assert main(['simulate', '--dim', '12', '--probe-grid', '3,0.8',"
        f" '--wigner-grid', '5,1.5', '--shots', '10', '--out', {ds!r}]) == 0\n"
        f"assert main(['reconstruct', '--data', {ds!r}, '--dim', '12',"
        f" '--rank', '2', '--iters', '2', '--out', {res!r}]) == 0\n"
        f"assert main(['budget', '--dim', '12', '--out', {budget!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.split('.')[:2] == ['numpy', 'polynomial'])\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, CSQPT_THREADS="1")
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# csqpt modules each command must leave unloaded: the layers it never runs
UNLOADED = {
    "budget": ("tomography", "reconstruct", "basis"),
    "decode-study": ("tomography", "reconstruct"),
    "simulate": ("basis", "metrics", "reconstruct"),
    "reconstruct": ("gates", "basis", "metrics"),
}


def test_commands_load_only_their_layers(tmp_path):
    # one fresh interpreter per command, at small sizes
    ds = small_dataset(tmp_path)
    argvs = {
        "budget": ["budget", "--dim", "12", "--out", str(tmp_path / "b.csv")],
        "decode-study": ["decode-study", "--dim", "12", "--noise", "315,478",
                         "--out-dir", str(tmp_path / "study")],
        "simulate": ["simulate", "--dim", "12", "--probe-grid", "3,0.8",
                     "--wigner-grid", "5,1.5", "--out", str(tmp_path / "s.json")],
        "reconstruct": ["reconstruct", "--data", ds, "--dim", "6", "--rank", "1",
                        "--iters", "2", "--out", str(tmp_path / "r.json")],
    }
    env = dict(os.environ, CSQPT_THREADS="1")
    for command, unloaded in UNLOADED.items():
        code = (
            "import json, sys\n"
            "from csqpt.cli import main\n"
            f"assert main({argvs[command]!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert "csqpt.channel" in loaded, command
        assert not loaded & {f"csqpt.{m}" for m in unloaded}, command
