"""Self-test of the benchmark: every workload at its smallest size, both modes.

    python3 perfbench/selftest.py

Checks that each run prints, as its last line, a result with exactly the keys
`correct`, `attempted`, `failed` and `metrics`, and that the metrics are the
ones `BENCHMARK.json` names for that mode, each with its unit.  Also checks
that every per-layer metric has a row in the prediction table of
`perfbench/README.md`, and that the benchmark exits non-zero without a result
when the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(label: str, proc: subprocess.CompletedProcess, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ: missing {sorted(set(expected) - set(metrics))},"
                      f" extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} has unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} has value {value!r}")
    return errors


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--smallest")
            errors += check_result(label, proc, expected[trace])
            print(f"{label}: checked", flush=True)

    readme = (HERE / "README.md").read_text(encoding="utf-8")
    errors += [f"README.md has no prediction row for {name}"
               for name in expected[1] if f"| `{name}` |" not in readme]

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "0",
               "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("failed" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
