"""Tiny-size self-test of the benchmark.

Runs every workload of BENCHMARK.json at smoke size, untraced and traced,
and asserts that each run passes its output checks and prints every metric
BENCHMARK.json names, with its unit. Then runs each workload once with one
expected answer falsified (--corrupt) and asserts that the run reports
failure with no numbers. Run from the repository root:

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys


def run(workload, trace, *extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            assert code == 0 and result["correct"], f"{workload} trace {trace} failed:\n{stderr}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (
                f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(expected[trace]) - set(got))}, "
                f"extra {sorted(set(got) - set(expected[trace]))}, "
                f"units {[(k, got[k], u) for k, u in expected[trace].items() if got.get(k, u) != u]}"
            )
            print(f"ok: {workload} trace {trace}: {len(got)} metrics")
        code, result, _ = run(workload, 0, "--corrupt")
        assert code != 0 and not result["correct"] and not result["metrics"], result
        print(f"ok: {workload} with a falsified expected answer reports failure")


if __name__ == "__main__":
    main()
