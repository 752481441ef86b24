"""benchmarks/compare.py on two trees whose ratbench/run.py is a stand-in
that prints a fixed closing JSON line, so no benchmark runs."""
import json
import os
import subprocess
import sys

import pytest

COMPARE = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "compare.py")

# prints the metrics in its tree's metrics.json as run.py's closing line, and
# appends its tree's name to the file that $COMPARE_LOG names
STAND_IN = """
import json, os
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(root, "metrics.json")) as f:
    metrics = json.load(f)
with open(os.environ["COMPARE_LOG"], "a") as f:
    f.write(os.path.basename(root) + "\\n")
correct = metrics.pop("correct", True)
print("env " + json.dumps({"nproc": 2}))
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
"""


def tree(tmp_path, name, run_py=STAND_IN, **metrics):
    root = tmp_path / name
    (root / "ratbench").mkdir(parents=True)
    (root / "ratbench" / "run.py").write_text(run_py)
    (root / "metrics.json").write_text(json.dumps(metrics))
    return str(root)


def compare(tmp_path, a, b, pairs):
    log = tmp_path / "order.log"
    env = dict(os.environ, COMPARE_LOG=str(log))
    proc = subprocess.run(
        [sys.executable, COMPARE, "--a", a, "--b", b, "--workload", "w", "--pairs", str(pairs), "--seconds", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    order = log.read_text().split() if log.exists() else []
    return proc, order


def test_pairs_alternate_and_the_table_reads_both_sides(tmp_path):
    a = tree(tmp_path, "a", wall_s=2.0, oracle_calls=10, samples=5)
    b = tree(tmp_path, "b", wall_s=1.5, oracle_calls=10, samples=5)
    proc, order = compare(tmp_path, a, b, 3)
    assert proc.returncode == 0, proc.stderr
    assert order == ["a", "b", "b", "a", "a", "b"]
    lines = proc.stdout.splitlines()
    assert lines[0] == "w pair 1 a (first): ok wall_s 2 oracle_calls 10 samples 5"
    assert lines[3] == "w pair 2 a: ok wall_s 2 oracle_calls 10 samples 5"
    report = json.loads(lines[-1])
    assert report["failed"] is False and report["env"] == {"nproc": 2}
    wall = report["workloads"]["w"]["summary"]["wall_s"]
    assert wall["median_a"] == 2.0 and wall["median_b"] == 1.5 and wall["quartiles_a"] == [2.0, 2.0]
    assert wall["median_ratio_b_a"] == 0.75 and wall["b_lower"] == 3 and wall["pairs"] == 3
    assert report["workloads"]["w"]["summary"]["oracle_calls"]["b_lower"] == 0


@pytest.mark.parametrize("count", ["oracle_calls", "samples"])
def test_a_count_that_differs_between_the_sides_exits_1(tmp_path, count):
    metrics = {"wall_s": 1.0, "oracle_calls": 10, "samples": 5}
    a = tree(tmp_path, "a", **metrics)
    b = tree(tmp_path, "b", **{**metrics, count: metrics[count] + 1})
    proc, _ = compare(tmp_path, a, b, 1)
    assert proc.returncode == 1
    assert f"w: {count} differ between the sides" in proc.stderr


def test_a_failed_run_exits_1(tmp_path):
    a = tree(tmp_path, "a", wall_s=1.0, oracle_calls=10, samples=5)
    b = tree(tmp_path, "b", wall_s=1.0, oracle_calls=10, samples=5, correct=False)
    proc, _ = compare(tmp_path, a, b, 1)
    assert proc.returncode == 1
    assert "w pair 1 b: FAILED" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] is True


def test_trees_whose_ratbench_differs_are_refused_before_any_run(tmp_path):
    a = tree(tmp_path, "a", wall_s=1.0)
    b = tree(tmp_path, "b", run_py=STAND_IN + "# another benchmark\n", wall_s=1.0)
    proc, order = compare(tmp_path, a, b, 1)
    assert proc.returncode == 1
    assert proc.stderr.startswith("refused: the ratbench/ files of")
    assert order == []
