"""Smoke tests of the benchmark itself, at its ``tiny`` size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test runs the benchmark command in a subprocess, exactly as a user
would, and reads the JSON object on the last line of its output.  Every
such run gets a session of its own, and no process of that session may
outlive it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, workload, trace=0, references=None):
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", "3", "--seconds", "0", "--trace", str(trace),
               "--size", "tiny", "--records", str(tmp_path / "records")]
    if references is not None:
        command += ["--references", str(references)]
    # The child leads a new session, whose id is its pid.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        stdout, _ = child.communicate(timeout=600)
    assert survivors(child.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    return child.returncode, result


def survivors(session):
    """Commands of the live processes in ``session`` (Linux ``/proc``)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session:
            found.append(cmdline.replace(b"\0", b" ").decode())
    return found


def assert_emits(result, names):
    assert set(result["metrics"]) == set(names)
    for name in names:
        entry = result["metrics"][name]
        assert isinstance(entry["value"], (int, float)), name
        assert entry["unit"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(tmp_path, workload):
    code, result = bench(tmp_path, workload)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_emits(result, [m["name"] for m in SPEC["end_to_end"]])
    records = list((tmp_path / "records").glob("*.json"))
    assert len(records) == 1
    record = json.loads(records[0].read_text())
    assert record["seed"] == 3 and record["cpu_count"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(tmp_path, workload):
    code, result = bench(tmp_path, workload, trace=1)
    assert code == 0, result
    assert result["correct"]
    assert_emits(result, [m["name"] for m in SPEC["per_layer"]])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Self times plus unattributed time account for the traced wall.
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.unattributed_s"] == \
        pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["trace.spans"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_is_reported_as_failure(tmp_path, workload):
    corrupted = json.loads(json.dumps(REFERENCES))
    answers = corrupted["tiny"][workload]
    key = next(k for k in answers if k.endswith("digest"))
    answers[key] = "0" * len(answers[key])
    path = tmp_path / "references.json"
    path.write_text(json.dumps(corrupted))
    code, result = bench(tmp_path, workload, references=path)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_compare_flags_a_regression(tmp_path):
    def record(directory, seed, wall):
        directory.mkdir(exist_ok=True)
        (directory / f"{seed}.json").write_text(json.dumps({
            "workload": "prove_cold",
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))

    for seed in range(4):
        record(tmp_path / "base", seed, 10.0 + 0.01 * seed)
        record(tmp_path / "same", seed, 10.0 + 0.01 * seed)
        record(tmp_path / "slow", seed, 20.0 + 0.01 * seed)
    compare = [sys.executable, str(RUN), "compare", str(tmp_path / "base"),
               "--new"]
    ok = subprocess.run(compare + [str(tmp_path / "same")], cwd=ROOT,
                        capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0 and "within bound" in ok.stdout
    slow = subprocess.run(compare + [str(tmp_path / "slow")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert slow.returncode == 1 and "WORSE" in slow.stdout
