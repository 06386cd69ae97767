"""Self-test of the benchmark.

Usage: python3 bench/selftest.py     (from the repository root, about 30 s)

Checks that a smoke run of every workload, untraced and traced, prints
every metric BENCHMARK.json declares with its unit and passes the
correctness gate, and that the gate trips when the golden digests are
corrupted or a verdict breaks the paper's rule.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_prints_every_metric_with_its_unit():
    for workload in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = smoke_run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in declared}, workload
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())


def test_gate_trips_on_corrupted_golden():
    import run

    run._import_engine()
    golden = json.loads((BENCH / "golden.json").read_text())
    corrupted = {key: "0" * 64 for key in golden}
    for workload in WORKLOADS:
        result = run.measure(workload, 7, 0.1, False, smoke=True,
                             golden=corrupted)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] > 0
        assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_gate_trips_on_wrong_verdict():
    import run

    run._import_engine()
    import workloads

    golden = json.loads((BENCH / "golden.json").read_text())
    request = workloads.first_request("broad")
    doc = request.execute()
    assert workloads.check(request, doc, golden) is None
    wrong = copy.deepcopy(doc)
    wrong["verdict"]["status"] = "NeverBochner"
    assert "rule" in workloads.check(request, wrong, golden)


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as err:
                failed += 1
                print(f"FAIL {name}: {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
