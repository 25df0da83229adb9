"""Benchmark of the iegirs CLI: one workload, one seed, one line of JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk --seed 3 --seconds 30 --trace 0

Each pass is a fresh interpreter (perfbench/child.py) with BLAS pinned to one
thread. It times `import iegirs.cli`, runs the workload's CLI call through
`iegirs.cli.main`, and audits every output row. Passes repeat the same call
until --seconds have gone by (at least one pass); the seed is the CLI's
--seed, so it picks the channel draws. If fewer than SETUP_SAMPLES passes
fit, fresh interpreters that only import `iegirs.cli` add set-up samples.

A shared machine changes speed by tens of percent, in phases that last
from under a second to minutes. Two measures keep the numbers steady:

- Rescaling for slow phases. Each pass times a fixed reference kernel
  (child.reference_kernel) after set-up and after the call. Set-up time is
  multiplied by REF_S / (the reference time right after it), and the
  pass's non-solve time by REF_S / (its mean reference time): the seconds
  they would have taken on a machine that runs the kernel in REF_S
  seconds. Phases change within a call, so each solve is rescaled by
  REF_S / (the mean of the reference chunks timed just before and after
  it inside the call; see child.Capture).
- Medians over passes. The wall time of a call is the sum, over its
  (scheme, trial) solves, of each solve's median rescaled runtime_ms over
  the passes, plus the median rescaled time spent outside the solves
  (scene draws, CSV writing). The asymptotics table has no solves; its
  estimate is the median rescaled pass.

Set-up time is the median of its samples. Raw per-pass quartiles and the
reference times are in the report line.

--trace 0 reports the end-to-end metrics: set-up time, CLI wall time and
peak resident memory. --trace 1 alternates untraced and traced passes and
reports per-layer metrics from spans recorded around the public functions
of channel, grouping, beamforming, harness and asymptotics (see spans.py),
the solve latency, quality and outcome figures of the untraced passes, and
the tracing overhead (traced minus untraced wall time).

Every pass must write the same CSV bytes, traced or not, and at PINNED_SEED
the CSV must match expected_sha256.json. Any failed check makes the result
`correct: false` and the exit code 1.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PINNED_SEED = 1
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
REF_S = 0.03
SCHEMES = 5
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# name -> (CLI argv, rows the call writes, output kind)
WORKLOADS = {
    "desk": (["simulate", "--quiet", "--trials", "32"], 32 * SCHEMES, "trials"),
    "full": (["simulate", "--quiet", "--full-scale", "--trials", "20"], 20 * SCHEMES, "trials"),
    "wide_groups": (["sweep", "--quiet", "--axis", "groups", "--values", "256", "--trials", "20"],
                    20 * SCHEMES, "trials"),
    "asymptotics": (["asymptotics", "--trials", "3000"], 12, "table"),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def run_child(spec, timeout):
    env = dict(os.environ, **BLAS_PIN, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    p = json.loads(proc.stdout.strip().splitlines()[-1])
    p["scale"] = REF_S / statistics.fmean(p["ref_s"])
    return p


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def tail_percentile(n):
    """Highest listed percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values, p):
    values = sorted(values)
    k = (len(values) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def solve_figures(passes):
    """Solve latency, quality and outcome counts.

    Each (scheme, axis value, trial) solve is timed once per pass; its
    latency is its median rescaled runtime_ms over passes, and the
    percentiles run over solves.
    """
    times, wsr, iters = {}, {}, {}
    for p in passes:
        for scheme, axis_value, trial, ms, it, rate, ref in p.get("solves", []):
            key = (scheme, axis_value, trial)
            times.setdefault(key, []).append(ms * REF_S / ref)
            wsr[key], iters[key] = rate, it
    if not times:
        return {}
    per_solve = {k: statistics.median(v) for k, v in times.items()}
    n = len(per_solve)
    tail_p = tail_percentile(n)
    ieg = [v for k, v in per_solve.items() if k[0] == "ieg"]
    ieg_wsr = [v for k, v in wsr.items() if k[0] == "ieg"]
    max_outer = passes[0]["max_outer"]
    return {
        "solve_ms_p50": statistics.median(per_solve.values()),
        "solve_ms_tail": percentile(list(per_solve.values()), tail_p),
        "solve_tail_percentile": tail_p,
        "solves": n,
        "solve_ms_sum": sum(per_solve.values()),
        "ieg_solve_ms_p50": statistics.median(ieg) if ieg else 0.0,
        "ieg_wsr_mean": statistics.fmean(ieg_wsr) if ieg_wsr else 0.0,
        "outer_iters": sum(iters.values()),
        "capped_share": sum(it == max_outer for it in iters.values()) / n,
    }


def check_passes(passes, workload, seed):
    """Audit failures and CSV mismatches across passes: (attempted, failed, notes)."""
    attempted = failed = 0
    notes = []
    reference = passes[0]["sha256"]
    for i, p in enumerate(passes):
        attempted += p["planned"]
        missing = max(0, p["planned"] - p["rows"])
        failed += p["bad"] + missing
        if p["error"]:
            notes.append(f"pass {i} raised:\n{p['error']}")
        elif p["bad"] or missing:
            notes.append(f"pass {i}: {p['bad']} rows failed the audit, {missing} missing")
        if p["sha256"] != reference:
            failed += p["planned"]
            notes.append(f"pass {i}: CSV {p['sha256']} differs from pass 0's {reference}")
    if seed == PINNED_SEED:
        pinned = json.loads((HERE / "expected_sha256.json").read_text())[workload]
        if reference != pinned:
            failed += passes[0]["planned"]
            notes.append(f"CSV at pinned seed {PINNED_SEED} is {reference}, expected {pinned}")
    return attempted, failed, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "iegirs" / "cli.py").is_file():
        print(f"no iegirs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv_cli, planned, kind = WORKLOADS[args.workload]
    spec = {"argv": argv_cli + ["--seed", str(args.seed)], "kind": kind, "out_dir": str(out_dir)}
    load_start = os.getloadavg()
    start = time.perf_counter()
    passes, traced = [], []
    while True:
        tracing = bool(args.trace) and len(passes) > len(traced)
        t = time.perf_counter()
        p = run_child(dict(spec, trace=tracing), timeout=max(5.0, RUN_LIMIT_S - (t - start)))
        p["planned"] = planned
        last = time.perf_counter() - t
        (traced if tracing else passes).append(p)
        if (traced or not args.trace) and time.perf_counter() - start + last > args.seconds:
            break
    setups = [(p["setup_s"], p["ref_s"][0]) for p in passes + traced]
    while len(setups) < SETUP_SAMPLES:
        t = time.perf_counter()
        p = run_child({"setup_only": True}, timeout=max(5.0, RUN_LIMIT_S - (t - start)))
        setups.append((p["setup_s"], p["ref_s"][0]))
    load_end = os.getloadavg()

    attempted, failed, notes = check_passes(passes + traced, args.workload, args.seed)
    figures = solve_figures(passes)
    if kind == "table":
        figures["asym_rel_err_max"] = max(p["asym_rel_err_max"] for p in passes)
    if traced:
        if any(p["counts"] != traced[0]["counts"] for p in traced):
            notes.append("span counts differ between traced passes")
        again = solve_figures(traced)
        if any(again.get(k) != figures.get(k) for k in ("outer_iters", "capped_share")):
            notes.append("outcome counters of traced and untraced passes differ")

    samples = {
        "setup_s": [s * REF_S / ref for s, ref in setups],
        "wall_s": [p["wall_s"] * p["scale"] for p in passes],
        "outside_solves_s": [(p["wall_s"] - sum(s[3] for s in p.get("solves", ())) / 1e3)
                             * p["scale"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "raw_setup_s": [s for s, _ in setups],
        "raw_wall_s": [p["wall_s"] for p in passes],
        "ref_s": [r for p in passes for r in p["ref_s"]],
        "solve_ref_s": [s[6] for p in passes for s in p.get("solves", ())] or [0.0],
    }
    report = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "traced_passes": len(traced), "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "quartiles": {k: dict(zip(("q1", "median", "q3"), quartiles(v))) for k, v in samples.items()},
        "figures": figures,
        "env": dict(passes[0]["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                    blas_pin=BLAS_PIN, loadavg_start=load_start, loadavg_end=load_end),
    }
    if traced:
        overhead = (statistics.median(p["wall_s"] * p["scale"] for p in traced)
                    - statistics.median(samples["wall_s"]))
        metrics = layer_metric_values(traced, figures, overhead)
    else:
        values = {"setup_s": statistics.median(samples["setup_s"]),
                  "wall_s": statistics.median(samples["wall_s"]),
                  "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
        if "solve_ms_sum" in figures:
            values["wall_s"] = (figures["solve_ms_sum"] / 1e3
                                + statistics.median(samples["outside_solves_s"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = failed == 0 and not notes
    for note in notes:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    print("report " + json.dumps(report))
    for name, m in metrics.items():
        print(f"{name:56s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metric_values(traced, figures, overhead):
    """Per-layer metrics: medians over traced passes, times rescaled like wall_s."""
    from spans import LAYER_METRICS
    metrics = {}
    for name, unit in LAYER_METRICS:
        value = statistics.median(p["layers"][name] * (p["scale"] if unit == "s" else 1.0)
                                  for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    for name, unit, key in (
            ("harness.solve_ms_p50", "ms", "solve_ms_p50"),
            ("harness.solve_ms_tail", "ms", "solve_ms_tail"),
            ("beamforming.ieg_solve_ms_p50", "ms", "ieg_solve_ms_p50"),
            ("beamforming.outer_iters", "count", "outer_iters"),
            ("beamforming.capped_share", "ratio", "capped_share"),
            ("harness.ieg_wsr_mean", "bit/s/Hz", "ieg_wsr_mean"),
            ("asymptotics.rel_err_max", "ratio", "asym_rel_err_max")):
        metrics[name] = {"value": figures.get(key, 0.0), "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
