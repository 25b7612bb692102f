"""Self-test of the benchmark itself (not of asyncbool).

    python3 perfbench/selftest.py [workload ...]

For each workload, the shortest possible runs (three untraced rounds, one
untraced and one traced round) must

- print, as the last line, every metric BENCHMARK.json lists, with its unit;
- report the known answer and crash counts of the package at the commit
  that introduced the benchmark (KNOWN below; a change that fixes one of
  the known crashers updates it);
- count an injected wrong answer as a failure.

It also checks that the benchmark refuses to run, with a nonzero exit
and no result line, from a directory that holds only BENCHMARK.json and
perfbench/.  Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per workload: per-layer values that are exact at this commit
KNOWN = {
    "basin-sweep": {"cli.malformed_crashes": 0, "oracle.simulate_word_schedule.calls": 0,
                    "oracle.checks_recorded": 0},
    "oracle-verify": {"cli.malformed_crashes": 0},
    "cli-session": {"cli.malformed_crashes": 2, "oracle.checks_recorded": 0},
}


def bench(*argv, cwd=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, units: dict, where: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{where}: metrics {sorted(got)} differ from {sorted(units)}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{where}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END, "end_to_end list")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER, "per_layer list")

    for workload in sys.argv[1:] or WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "0"]
        code, result, err = bench(*base, "--trace", "0")
        expect(code == 0 and result is not None, f"{workload}: untraced run failed: {err[-500:]}")
        check_metrics(result, END_TO_END, f"{workload} --trace 0")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: answers failed")
        expect(result["metrics"]["answered_ratio"]["value"] == 1.0, f"{workload}: answered_ratio")

        code, result, err = bench(*base, "--trace", "1")
        expect(code == 0 and result is not None, f"{workload}: traced run failed: {err[-500:]}")
        check_metrics(result, PER_LAYER, f"{workload} --trace 1")
        for name, value in KNOWN[workload].items():
            got = result["metrics"][name]["value"]
            expect(got == value, f"{workload}: {name} is {got}, known value {value}")

        code, result, err = bench(*base, "--trace", "1", "--inject-wrong")
        expect(code == 0 and result is not None, f"{workload}: injected run failed: {err[-500:]}")
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: an injected wrong answer was not counted")
        print(f"{workload}: ok", flush=True)

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
        expect(code != 0 and result is None, "a checkout without src/ was not refused")
    finally:
        shutil.rmtree(bare)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run still uses it
    print("bare checkout: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
