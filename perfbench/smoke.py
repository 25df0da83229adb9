"""Smoke test of the benchmark on a tiny configuration.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Checks that an untraced and a traced run of a one-trial simulate emit
exactly the metric names BENCHMARK.json lists, and that the correctness
gate trips on a corrupted simulate row, a corrupted asymptotics row, a
failed pass and a CSV that differs from the pinned one. Prints one line per
check and exits 1 if any check fails.
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src")]
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import child  # noqa: E402  (imports iegirs.cli)
import run  # noqa: E402

FAILURES = []


def check(name, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def run_tiny(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "desk", "--seed", "2", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS["desk"] = (["simulate", "--quiet", "--trials", "1"], run.SCHEMES, "trials")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_tiny(trace)
        check(f"trace {trace}: run exits 0 and is correct", code == 0 and result["correct"])
        check(f"trace {trace}: emits exactly the {key} metric names",
              set(result["metrics"]) == {m["name"] for m in bench[key]})
        check(f"trace {trace}: units match BENCHMARK.json",
              all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in bench[key]
                  if m["name"] in result["metrics"]))

    out_dir = ROOT / ".perfbench_run" / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    capture = child.Capture()
    capture.install()
    try:
        child.cli.main(["simulate", "--quiet", "--trials", "2", "--seed", "2",
                        "--out", str(out_dir / "sim.csv")])
    finally:
        capture.uninstall()
    check("audit passes clean simulate rows", child.audit_trial_rows(capture.rows, capture.draws) == 0)
    rows = capture.rows[0]
    rows[3].wsr_bits *= 1.0 + 1e-6
    check("audit trips on a rate off by 1e-6", child.audit_trial_rows(capture.rows, capture.draws) == 1)
    rows[7].wsr_bits = float("nan")
    check("audit trips on a non-finite rate", child.audit_trial_rows(capture.rows, capture.draws) == 2)

    table = out_dir / "asym.csv"
    child.cli.main(["asymptotics", "--trials", "3000", "--seed", "2", "--out", str(table)])
    n, bad, _ = child.audit_asymptotics_table(table)
    check("audit passes a clean asymptotics table", n == 12 and bad == 0)
    with open(table, newline="") as fh:
        lines = list(csv.reader(fh))
    lines[1][5] = str(float(lines[1][5]) * 1.5)        # monte_carlo of the first gain row
    with open(table, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    check("audit trips on a corrupted asymptotics row", child.audit_asymptotics_table(table)[1] == 1)

    clean = {"planned": 5, "rows": 5, "bad": 0, "error": None, "sha256": "a"}
    _, failed, notes = run.check_passes([clean, dict(clean, bad=1)], "desk", 2)
    check("a bad row counts as failed", failed == 1 and notes)
    _, failed, notes = run.check_passes([clean, dict(clean, sha256="b")], "desk", 2)
    check("differing CSV bytes count as failed", failed == 5 and notes)
    _, failed, notes = run.check_passes([clean], "desk", run.PINNED_SEED)
    check("a CSV that differs from the pinned one counts as failed", failed == 5 and notes)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
