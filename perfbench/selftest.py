#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload of BENCHMARK.json
at tiny scale (--scale tiny), untraced and traced, through run.py, and
checks that:

- each run exits 0 and its last line is the result object with exactly
  the keys correct, attempted, failed and metrics, and correct is true;
- the untraced run emits exactly the end_to_end metrics and the traced
  run exactly the per_layer metrics, each with its declared unit;
- every end-to-end value is a finite number above 0;
- the untraced run prints, as "# report" lines, every end-to-end figure
  the workload defines under its own name (REPORTED below);
- the simulated-output digest is the same in both runs (the traced run
  must not change device results);
- the traced run wrote a Chrome trace-event file that parses and holds
  the spans it reported.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-workload end-to-end figures beyond the gated metric set.
REPORTED = {
    "trace-10m": ["host_qps", "device_batch_ms", "channel_util",
                  "failed_frac"],
    "serve-steady": ["host_qps", "device_p50_ms", "device_p99_ms",
                     "device_latency_samples", "max_rate_qps",
                     "failed_frac", "recall_at_5"],
    "deploy-2m": ["host_rows_per_s", "deploy_ms", "deploy_host_peak_mb",
                  "failed_frac"],
    "serve-burst": ["host_qps", "device_p50_ms", "device_p99_ms",
                    "device_latency_samples", "goodput_qps",
                    "failed_frac"],
}


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def check_metrics(errors, where, result, declared):
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ set(want))} "
                      "differ from BENCHMARK.json")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{where}: {name} unit {got.get('unit')!r}, "
                          f"want {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append(f"{where}: {name} is not a finite number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            code, lines, stderr = run(workload, trace)
            if code != 0 or not lines:
                errors.append(f"{where}: exit {code}\n{stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                errors.append(f"{where}: correct is not true")
            if not isinstance(result.get("attempted"), int) or \
                    result["attempted"] < 1:
                errors.append(f"{where}: attempted must be >= 1")
            check_metrics(errors, where, result,
                          spec["per_layer"] if trace else spec["end_to_end"])
            if not trace:
                for name, metric in result.get("metrics", {}).items():
                    if not metric.get("value", 0) > 0:
                        errors.append(f"{where}: {name} is not above 0")
                for name in REPORTED.get(workload, []):
                    if line_value(lines, f"# report {name} = ") is None:
                        errors.append(f"{where}: no report line for {name}")
            results[trace] = lines
        if len(results) != 2:
            continue
        digests = [line_value(results[t], "# digest ") for t in (0, 1)]
        if digests[0] is None or digests[0] != digests[1]:
            errors.append(f"{workload}: digest differs between untraced "
                          f"and traced runs: {digests}")
        trace_path = line_value(results[1], "# chrome trace ")
        try:
            with open(trace_path) as handle:
                events = json.load(handle)["traceEvents"]
            names = {e["name"] for e in events if e.get("ph") == "X"}
            if "timed" not in names or "setup" not in names:
                errors.append(f"{workload}: chrome trace lacks the setup "
                              "and timed spans")
        except (TypeError, OSError, ValueError, KeyError) as error:
            errors.append(f"{workload}: chrome trace unreadable: {error}")
        print(f"selftest: {workload} ok" if not any(
            e.startswith(workload) for e in errors) else
            f"selftest: {workload} FAILED", flush=True)
    for error in errors:
        print(f"selftest: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
