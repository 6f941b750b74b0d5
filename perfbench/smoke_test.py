#!/usr/bin/env python3
"""Tiny-size smoke test of the reproduction benchmark.

    smoke_test.py <perfbench binary> <BENCHMARK.json> <work dir>

For every workload in BENCHMARK.json, runs the binary at --size=tiny
untraced and traced and asserts that:
  - the last stdout line is the result object with exactly the keys correct,
    attempted, failed and metrics, and the run passed its checks;
  - the untraced result holds exactly the end_to_end metrics and the traced
    one exactly the per_layer metrics, each with the unit BENCHMARK.json
    names, and each is also printed in the report with that unit;
  - error_rate is printed with its base;
  - the traced run's spans load as Chrome trace-event JSON.
It also checks that run.py fails without a result line where the repo's
sources are absent.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(binary, workload, seed, trace, trace_out):
    r = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}", "--seconds=0",
         "--size=tiny", f"--trace={trace}", f"--trace-out={trace_out}"],
        capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, f"{workload}: rc {r.returncode}\n{r.stdout}\n{r.stderr}"
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, report, result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, (
        workload, sorted(set(metrics) ^ {m["name"] for m in wanted}))
    text = "\n".join(report)
    for m in wanted:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (workload, m, got)
        assert isinstance(got["value"], (int, float))
        pattern = rf"^(metric|layer) {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b"
        assert re.search(pattern, text, re.M), (workload, m["name"])


def main():
    binary, bench_json, workdir = sys.argv[1:4]
    with open(bench_json) as f:
        bench = json.load(f)
    os.makedirs(workdir, exist_ok=True)
    for name in [w["name"] for w in bench["workloads"]]:
        prefix = os.path.join(workdir, "trace")
        report, result = run(binary, name, 7, 0, prefix)
        check_metrics(name, report, result, bench["end_to_end"])
        assert re.search(r"^metric error_rate = 0 ratio +\(0 failed of [1-9]\d* attempted\)",
                         "\n".join(report), re.M), name
        report, result = run(binary, name, 7, 1, prefix)
        check_metrics(name, report, result, bench["per_layer"])
        with open(f"{prefix}-{name}.json") as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        assert events, name
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0, e
            assert e["args"]["workload"] == name
            assert e["args"]["self_us"] <= e["dur"] + 1e-3, e
        span_names = {e["name"] for e in events}
        assert {"round", "setup", "measure", "sim.machine_ctor"} <= span_names, span_names
        print(f"ok {name}: {len(result['metrics'])} per-layer metrics, "
              f"{len(events)} spans")

    # Without the repo's sources the build must fail and print no result.
    bare = os.path.join(workdir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(bench_json, bare)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-clht-bfast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert r.returncode != 0 and "correct" not in r.stdout, (r.returncode, r.stdout)
    print("ok bare checkout fails without a result")


if __name__ == "__main__":
    main()
