"""One benchmark pass in a fresh interpreter: set up, run one CLI call, audit.

Usage: python3 child.py '<spec json>'

The spec gives the CLI argv (without --out), the output kind ("trials" for
simulate/sweep, "table" for asymptotics), the output directory, and whether
to trace; with {"setup_only": true} the child only reports its set-up time
and the reference time after it.
The pass times `import iegirs.cli` (set-up) and the call through
`iegirs.cli.main`, and times a fixed reference kernel right after set-up
and right after the call, so the caller can correct for the machine's
speed at the time. Inside the call it also times one chunk of the
reference kernel at a solve boundary whenever LOCAL_REF_EVERY_S have
passed, and gives each solve the mean of the chunks just before and just
after it; the time of these chunks is left out of the wall time.
Afterwards it audits every row:

- simulate/sweep rows: the rate is finite and nonnegative, and
  `harness.recompute_wsr` on the same channel draw matches it to 1e-9
  relative;
- asymptotics rows: every Monte Carlo estimate is finite and within
  ASYM_TOL of the closed form, and the gain rows' relative error matches
  their two columns.

Rows are read from the return value of `harness.run_monte_carlo`, which is
rebound for the pass; the channel draw of each trial is rebuilt from the
generator state captured at `harness.build_scenario`. The last line of
standard output is the pass result as JSON.
"""

import time

_t0 = time.perf_counter()
import iegirs.cli as cli  # noqa: E402  (timed: this is the set-up being measured)
SETUP_S = time.perf_counter() - _t0

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from iegirs import harness  # noqa: E402
from iegirs.beamforming import SolverOptions  # noqa: E402
from iegirs.channel import build_scenario  # noqa: E402

RATE_RTOL = 1e-9
LOCAL_REF_EVERY_S = 0.5
# loosest Monte Carlo tolerance the library's own validator applies (var_tol)
ASYM_TOL = 0.10

_ref_rng = np.random.default_rng(12345)
_REF_SMALL = _ref_rng.standard_normal((16, 4, 4)) + 1j * _ref_rng.standard_normal((16, 4, 4))
_REF_MID = _ref_rng.standard_normal((128, 128))
_REF_MID = _REF_MID @ _REF_MID.T
_REF_LONG = _ref_rng.standard_normal((4, 10000)) + 1j * _ref_rng.standard_normal((4, 10000))


def reference_chunk():
    """Seconds for one chunk of fixed numpy work that does not touch iegirs.

    A chunk mixes small-matrix calls from a Python loop, a mid-size LAPACK
    eigensolve, sampling and long-vector products, as the workloads do, so
    its time tracks how fast the machine runs them at the moment.
    """
    gen = np.random.default_rng(0)
    t = time.perf_counter()
    acc = 0.0
    for i in range(1250):
        m = _REF_SMALL[i % 16]
        acc += np.linalg.eigvalsh(m @ m.conj().T)[-1]
    for _ in range(12):
        acc += np.linalg.eigvalsh(_REF_MID)[-1]
    for _ in range(25):
        acc += float(np.abs(_REF_LONG.conj() @ (_REF_LONG[0] * gen.standard_normal(10000))).sum())
    elapsed = time.perf_counter() - t
    if not math.isfinite(acc):
        raise ValueError("reference kernel produced a non-finite value")
    return elapsed


def reference_kernel():
    """The fastest of several reference chunks, which leaves out short stalls."""
    return min(reference_chunk() for _ in range(8))


class Capture:
    """Keeps the rows and channel-draw inputs of each run_monte_carlo call,
    and the reference chunks timed between solves."""

    def __init__(self):
        self.rows = []
        self.draws = []          # per run_monte_carlo call: [(config, generator state)]
        self.local_refs = []     # seconds per reference chunk, in order
        self.solve_refs = []     # per run_scheme call: index of the chunk timed before it
        self.ref_in_call_s = 0.0
        self._draws = None
        self._last_ref = -math.inf
        self._restore = []

    def local_ref(self):
        t = time.perf_counter()
        self.local_refs.append(reference_chunk())
        self._last_ref = time.perf_counter()
        return self._last_ref - t

    def solve_ref_s(self):
        """Mean of the chunks just before and just after each solve."""
        return [(self.local_refs[i] + self.local_refs[i + 1]) / 2 for i in self.solve_refs]

    def install(self):
        run_mc, build, run_scheme = (harness.run_monte_carlo, harness.build_scenario,
                                     harness.run_scheme)

        def capture_run_scheme(*args, **kwargs):
            if time.perf_counter() - self._last_ref >= LOCAL_REF_EVERY_S:
                self.ref_in_call_s += self.local_ref()
            self.solve_refs.append(len(self.local_refs) - 1)
            return run_scheme(*args, **kwargs)

        def capture_build_scenario(config, rng):
            if self._draws is not None:
                self._draws.append((config, rng.bit_generator.state))
            return build(config, rng)

        def capture_run_monte_carlo(*args, **kwargs):
            outer = self._draws
            self._draws = []
            self.draws.append(self._draws)
            try:
                rows = run_mc(*args, **kwargs)
            finally:
                self._draws = outer
            self.rows.append(rows)
            return rows

        self._restore = [("run_monte_carlo", run_mc), ("build_scenario", build),
                         ("run_scheme", run_scheme)]
        harness.run_monte_carlo = capture_run_monte_carlo
        harness.build_scenario = capture_build_scenario
        harness.run_scheme = capture_run_scheme

    def uninstall(self):
        for attr, original in self._restore:
            setattr(harness, attr, original)


def audit_trial_rows(batches, draws):
    """Number of rows that fail the rate checks; batches and draws pair up by index."""
    bad = 0
    for rows, batch_draws in zip(batches, draws):
        for r in rows:
            if not (math.isfinite(r.wsr_bits) and r.wsr_bits >= 0) or r.trial >= len(batch_draws):
                bad += 1
                continue
            config, state = batch_draws[r.trial]
            rng = np.random.Generator(getattr(np.random, state["bit_generator"])())
            rng.bit_generator.state = state
            again = harness.recompute_wsr(build_scenario(config, rng), r, config)
            if not abs(again - r.wsr_bits) <= RATE_RTOL * max(abs(r.wsr_bits), 1e-300):
                bad += 1
    return bad


def audit_asymptotics_table(path):
    """(number of rows, number of bad rows, largest Monte Carlo relative error)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad, worst = 0, 0.0
    for row in rows:
        closed = float(row["closed_form"])
        if row["quantity"] == "grouping_loss":
            bad += not (math.isfinite(closed) and closed <= 1.0)
            continue
        mc, err = float(row["monte_carlo"]), float(row["rel_err"])
        ok = (math.isfinite(closed) and closed > 0 and math.isfinite(mc) and mc >= 0
              and 0 <= err <= ASYM_TOL)
        if row["quantity"].endswith("_gain"):
            # the other rows report the worst per-group error, not this ratio
            ok = ok and abs(err - abs(mc - closed) / closed) <= RATE_RTOL * max(err, 1e-300)
        bad += not ok
        worst = max(worst, err) if math.isfinite(err) else math.inf
    return len(rows), bad, worst


def environment():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def run_pass(spec):
    ref_after_setup = reference_kernel()
    tracer = None
    if spec["trace"]:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    capture = Capture()
    capture.install()

    out = os.path.join(spec["out_dir"], "out.csv")
    if os.path.exists(out):
        os.remove(out)
    error = None
    capture.local_ref()
    if tracer:
        tracer.active = True
    t = time.perf_counter()
    try:
        cli.main(list(spec["argv"]) + ["--out", out])
    except Exception:
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t - capture.ref_in_call_s
    if tracer:
        tracer.active = False
    capture.local_ref()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after_call = reference_kernel()
    capture.uninstall()

    sha = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
    result = {"setup_s": SETUP_S, "wall_s": wall, "peak_rss_mb": peak_mb, "error": error,
              "ref_s": [ref_after_setup, ref_after_call],
              "sha256": sha, "max_outer": SolverOptions().max_outer, "env": environment()}
    if spec["kind"] == "table":
        n, bad, worst = audit_asymptotics_table(out) if sha else (0, 0, math.inf)
        result.update(rows=n, bad=bad, asym_rel_err_max=worst)
    else:
        flat = [r for rows in capture.rows for r in rows]
        refs = capture.solve_ref_s()
        if len(refs) != len(flat) and not error:
            result["error"] = f"{len(refs)} solves ran but {len(flat)} rows came back"
        result.update(rows=len(flat), bad=audit_trial_rows(capture.rows, capture.draws),
                      solves=[[r.scheme, r.axis_value, r.trial, r.runtime_ms, r.iterations,
                               r.wsr_bits, ref] for r, ref in zip(flat, refs)])
    if tracer:
        tracer.uninstall()
        tracer.write(os.path.join(spec["out_dir"], "spans.jsonl"))
        summary = tracer.summary()
        result["layers"] = layer_metrics(summary)
        result["counts"] = {"calls": summary["calls"], "tagged": summary["tagged"]}
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": SETUP_S, "ref_s": [reference_kernel()]}))
    else:
        print(json.dumps(run_pass(spec)))
