import json
import tracemalloc

import numpy as np
import pytest

from tqsf import filtering, statevector
from tqsf.cli import ExperimentConfig, main, rng_demo, run_experiment, write_json
from tqsf.filtering import (
    PathLabel,
    method_a_final_state,
    method_b_final_state,
    method_c_counts,
    method_c_deferred_final_state,
)
from tqsf.states import hadamard_x13_state
from tqsf.statevector import sample_counts
from tqsf.verification import run_verification


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(doc):
    doc = json.loads(json.dumps(doc))
    doc["metadata"].pop("timestamp")
    return doc


@pytest.mark.parametrize("kind", ["run", "verify"])
def test_write_json_matches_json_dump(tmp_path, kind):
    if kind == "run":
        document = run_experiment(ExperimentConfig(n=4, initial_state="hadamard-x13",
                                                   method="b-hj", shots=2000))
    else:
        document = run_verification(3, states_per_n=2)
    out = tmp_path / "doc.json"
    write_json(document, str(out))
    with open(tmp_path / "ref.json", "w") as fh:  # the streaming writer it replaced
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_run_method_a_exact(tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "run", "--n", "4", "--state", "hadamard", "--method", "a",
        "--mode", "exact", "--shots", "0", "--out", str(out),
    ])
    assert rc == 0
    doc = read_json(out)
    probs = {
        (row["label"]["two_S"], row["label"]["two_M"]): row["probability"]
        for row in doc["outcomes"]
    }
    expected = {(4, 4): 1 / 16, (4, 2): 4 / 16, (4, 0): 6 / 16, (4, -2): 4 / 16, (4, -4): 1 / 16}
    assert set(probs) == set(expected)
    for key, p in expected.items():
        assert probs[key] == pytest.approx(p, abs=1e-10)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_run_method_b_hj_outcome_rows(tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "run", "--n", "4", "--state", "hadamard-x13", "--method", "b-hj",
        "--out", str(out),
    ])
    assert rc == 0
    doc = read_json(out)
    rows = doc["outcomes"]
    assert len(rows) == 11  # 3+3 components for (1, +-1), 2 for (0,0), 3 for S=2
    sector_counts = {}
    for row in rows:
        key = (row["label"]["two_S"], row["label"]["two_M"])
        sector_counts[key] = sector_counts.get(key, 0) + 1
    assert sector_counts[(2, 2)] == 3
    assert sector_counts[(2, -2)] == 3
    assert sector_counts[(0, 0)] == 2


def test_run_method_c_histogram(tmp_path):
    out = tmp_path / "c.json"
    rc = main([
        "run", "--n", "4", "--state", "hadamard-x13", "--method", "c",
        "--shots", "20000", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    doc = read_json(out)
    counts = {row["label"]["step_bits"]: row["count"] for row in doc["outcomes"]}
    assert sum(counts.values()) == 20000
    by_spin = {}
    for row in doc["outcomes"]:
        by_spin.setdefault(row["label"]["two_S"], 0)
        by_spin[row["label"]["two_S"]] += row["count"]
    # exact final-spin weights: S=2 -> 1/6, S=1 -> 1/2, S=0 -> 1/3
    for two_S, p in ((4, 1 / 6), (2, 1 / 2), (0, 1 / 3)):
        sigma = np.sqrt(20000 * p * (1 - p))
        assert abs(by_spin[two_S] - 20000 * p) < 4 * sigma


def test_run_sampled_counts_and_determinism(tmp_path):
    args = [
        "run", "--n", "4", "--state", "hadamard", "--method", "a",
        "--shots", "10000", "--seed", "77",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    d1, d2 = strip_timestamp(read_json(out1)), strip_timestamp(read_json(out2))
    assert d1 == d2
    counts = [row["count"] for row in d1["outcomes"]]
    assert sum(counts) == 10000


@pytest.mark.parametrize(
    "method, mode",
    [("a", "exact"), ("b-s2j", "exact"), ("b-hj", "exact"), ("c-deferred", "exact"),
     ("a", "trotter")],
)
def test_run_counts_sample_the_final_state(method, mode):
    n, shots, seed, steps = 4, 5000, 31, 8
    config = ExperimentConfig(n=n, initial_state="hadamard-x13", method=method, mode=mode,
                              trotter_steps=steps, shots=shots, seed=seed)
    doc = run_experiment(config)
    state = hadamard_x13_state(n)
    if method == "a":
        joint, layout = method_a_final_state(state, n, mode, steps)
    elif method.startswith("b-"):
        joint, layout = method_b_final_state(state, n, method[2:], mode, steps)
    else:
        joint, layout = method_c_deferred_final_state(state, n)
    expected = sample_counts(joint, layout.ancilla_qubits(), shots, seed)
    # the ancilla bitstring lists the last register first
    names = [name for name, _ in reversed(layout.registers)]
    got = {"".join(row["raw_bits"][name] for name in names): row["count"]
           for row in doc["outcomes"]}
    assert {bits: count for bits, count in got.items() if count} == expected


@pytest.mark.parametrize("method", ["a", "b-hj", "c-deferred"])
def test_sampled_run_computes_one_ancilla_marginal(monkeypatch, method):
    calls = []
    marginal = statevector._marginal

    def counted(state, qubits):
        calls.append(state.num_qubits)
        return marginal(state, qubits)

    for module in (filtering, statevector):
        monkeypatch.setattr(module, "_marginal", counted)
    doc = run_experiment(ExperimentConfig(n=4, initial_state="hadamard-x13", method=method,
                                          shots=1000, seed=5))
    assert sum(row["count"] for row in doc["outcomes"]) == 1000
    assert calls == [doc["layout"]["total_qubits"]]


def test_run_method_c_rows_are_method_c_counts():
    shots, seed = 3000, 17
    doc = run_experiment(ExperimentConfig(n=4, initial_state="hadamard-x13", method="c",
                                          shots=shots, seed=seed))
    got = {}
    for row in doc["outcomes"]:
        got[PathLabel.from_bits([int(b) for b in row["label"]["step_bits"]])] = row["count"]
        assert row["probability"] == row["count"] / shots
    assert got == method_c_counts(hadamard_x13_state(4), 4, shots, seed)


def test_run_b_hj_trotter_reports_leakage_undecoded(tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "run", "--n", "4", "--state", "hadamard-x13", "--method", "b-hj",
        "--mode", "trotter", "--trotter-steps", "16", "--shots", "100", "--out", str(out),
    ])
    assert rc == 0
    rows = read_json(out)["outcomes"]
    assert sum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-9)
    assert sum(row["count"] for row in rows) == 100
    assert any(row["label"]["kind"] == "undecoded" for row in rows)


def test_run_writes_csv_and_svg(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    svg_path = tmp_path / "r.svg"
    rc = main([
        "run", "--n", "2", "--state", "hadamard", "--method", "a",
        "--out", str(out), "--csv", str(csv_path), "--plot", str(svg_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "label,probability,count"
    assert len(lines) > 1
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "<rect" in svg


def test_run_amplitude_file_state(tmp_path):
    amps = tmp_path / "state.txt"
    amps.write_text("\n".join(["0.5 0.0"] * 4) + "\n")
    out = tmp_path / "r.json"
    rc = main([
        "run", "--n", "2", "--state", f"@{amps}", "--method", "a", "--out", str(out),
    ])
    assert rc == 0
    doc = read_json(out)
    # |++> is the symmetric Hadamard state: binomial over M at S=1
    probs = {row["label"]["two_M"]: row["probability"] for row in doc["outcomes"]}
    assert probs[0] == pytest.approx(0.5, abs=1e-10)


def test_run_bitstring_state(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["run", "--n", "2", "--state", "00", "--method", "a", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert len(doc["outcomes"]) == 1
    assert doc["outcomes"][0]["label"] == {
        "kind": "spin", "two_S": 2, "two_M": 2, "S": 1.0, "M": 1.0,
    }


def test_invalid_config_exit_code(tmp_path, capsys):
    rc = main([
        "run", "--n", "4", "--state", "hadamard", "--method", "c",
        "--shots", "0", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_trotter_requires_shots(tmp_path):
    rc = main([
        "run", "--n", "4", "--state", "hadamard", "--method", "a",
        "--mode", "trotter", "--shots", "0", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2


def test_capacity_exit_code(tmp_path):
    rc = main([
        "run", "--n", "6", "--state", "hadamard", "--method", "b-s2j",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ["run", "--n", "40", "--method", "a"],
    ["rng-demo", "--n", "40", "--shots", "10"],
])
def test_oversized_n_exits_3_before_allocating(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "x.out")]) == 3


def test_method_c_tree_capacity_exits_3_before_allocating(tmp_path, capsys):
    # n = 14 may grow a 1.7 GiB path tree; the 2^14-amplitude input state is 256 KiB
    argv = ["run", "--n", "14", "--method", "c", "--shots", "10",
            "--out", str(tmp_path / "x.json")]
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "path tree" in capsys.readouterr().err
    assert peak < 1 << 20


def test_method_c_runs_at_13_qubits(tmp_path):
    out = tmp_path / "x.json"
    assert main(["run", "--n", "13", "--state", "hadamard-x13", "--method", "c",
                 "--shots", "200", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sum(row["count"] for row in doc["outcomes"]) == 200


@pytest.mark.parametrize("n, lines", [(40, "1 0\n0 0\n"), (21, "not 'real imag'\n0 0\n")],
                         ids=["n40", "n21-unparsable"])
def test_oversized_amplitude_file_exits_3_before_reading(tmp_path, capsys, n, lines):
    # the n = 21 file would fail to parse (exit 2) if it were read
    amps = tmp_path / "state.txt"
    amps.write_text(lines)
    rc = main([
        "run", "--n", str(n), "--state", f"@{amps}", "--method", "a",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 3
    assert "capacity error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan 0", "inf 0", "0 -inf"])
@pytest.mark.parametrize("method", ["a", "c"])
def test_run_rejects_non_finite_amplitude_file(tmp_path, capsys, bad, method):
    amps = tmp_path / "state.txt"
    amps.write_text(bad + "\n" + "0 0\n" * 15)
    rc = main([
        "run", "--n", "4", "--state", f"@{amps}", "--method", method,
        "--shots", "100", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "state.txt:1:" in capsys.readouterr().err


def test_layout_reports_reference_sizes(capsys):
    rc = main(["layout", "--n", "4", "--method", "a"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    sizes = {reg["name"]: reg["size"] for reg in doc["registers"]}
    assert sizes == {"z": 3, "S": 2}


def test_layout_method_b(capsys):
    rc = main(["layout", "--n", "4", "--method", "b-hj"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    sizes = {reg["name"]: reg["size"] for reg in doc["registers"]}
    assert sizes == {"z": 3, "path2": 2, "path3": 2, "path4": 3}


def test_rng_demo_binomial(tmp_path):
    out = tmp_path / "demo.csv"
    rc = main(["rng-demo", "--n", "4", "--shots", "50000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,probability,count"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    probs = [float(r[1]) for r in rows]
    assert probs == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16], abs=1e-12)
    counts = [int(r[2]) for r in rows]
    assert sum(counts) == 50000


def test_rng_demo_single_qubit():
    result = rng_demo(1, 1000, seed=3)
    assert result["probabilities"] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_rng_demo_rejects_bad_args():
    with pytest.raises(ValueError):
        rng_demo(0, 10, seed=1)
    with pytest.raises(ValueError):
        rng_demo(2, 0, seed=1)


def test_verify_small(capsys):
    rc = main(["verify", "--n-max", "2", "--states-per-n", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_cross_checks_n4(capsys):
    rc = main(["verify", "--n-max", "4", "--states-per-n", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    for name in (
        "oracle-equivalence-n4",
        "variant-equivalence-n4",
        "deferred-path-marginal-n4",
        "sequential-final-spin-n4",
    ):
        assert f"[PASS] {name}" in out


def test_verify_full_range_n6(capsys):
    rc = main(["verify", "--n-max", "6", "--states-per-n", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "[PASS] oracle-equivalence-n6" in out


def test_verify_exits_1_on_a_failing_check(monkeypatch, capsys):
    from tqsf import cli

    failing = {"name": "planted-check", "passed": False, "detail": "planted failure"}
    monkeypatch.setattr(cli, "run_verification",
                        lambda *args: {"passed": False, "checks": [failing]})
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] planted-check: planted failure" in captured.out
    assert "all checks passed" not in captured.out
    assert "planted-check" in captured.err


@pytest.mark.parametrize("states_per_n", ["0", "-2"])
def test_verify_rejects_fewer_than_one_state_per_n(capsys, states_per_n):
    rc = main(["verify", "--n-max", "3", "--states-per-n", states_per_n])
    assert rc == 2
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "states_per_n must be >= 1" in captured.err


@pytest.mark.parametrize("n_max", ["2", "3"])
def test_verify_report_file(tmp_path, n_max):
    out = tmp_path / "report.json"
    rc = main(["verify", "--n-max", n_max, "--states-per-n", "2", "--out", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "undersized-register-aliasing" in names


def test_console_script_end_to_end(tmp_path):
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    if sys.version_info >= (3, 11):
        import tomllib

        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        assert project["scripts"]["tqsf"] == "tqsf.cli:main"
    exe = shutil.which("tqsf")
    if exe is None:
        # not installed: run the entry point's module from the source tree
        command = [sys.executable, "-m", "tqsf.cli"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
    else:
        command, env = [exe], None
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [*command, "run", "--n", "2", "--state", "hadamard", "--method", "a",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = read_json(out)
    assert doc["metadata"]["tool"] == "tqsf"
    assert len(doc["outcomes"]) == 3


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0, initial_state="hadamard", method="a").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, initial_state="hadamard", method="nope").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, initial_state="hadamard", method="c-deferred",
                         mode="trotter", shots=10).validate()


def test_run_experiment_rejects_mismatched_state():
    config = ExperimentConfig(n=3, initial_state="hadamard-x13", method="a")
    with pytest.raises(ValueError):
        run_experiment(config)
