"""Scenario orchestration: benchmark schemes, Monte Carlo trials, sweeps, CSV.

Five schemes share each trial's channel realization: the grouped surface with
statistically optimized groups (ieg), adjacent-block groups (aeg), an
ungrouped surface restricted to Q controlled elements (uirs_q), a surface
with one fixed random reflection draw (random_rcv), and no surface at all
(no_irs). Every scheme exposes exactly Q (or 0) real-time reflection
dimensions, keeping the pilot budget comparable.
"""

import csv
import io
import math
import time
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import beamforming as bf
from . import grouping as grp
from .channel import build_scenario
from .config import trial_seed_sequence

CSV_HEADER = ("scheme", "axis", "axis_value", "N", "Q", "trial", "seed",
              "wsr_bits_per_hz", "iterations", "runtime_ms")

# Real-time reflection dims and frozen phases drawn by each scheme, given (N, Q).
# The real-time rows are the Q groups of ieg and aeg, or elements 1..Q of
# uirs_q; the frozen elements are the last ones of the surface. no_irs has
# no surface.
SCHEME_DIMS = {
    "ieg": lambda n, q: (q, 0),
    "aeg": lambda n, q: (q, 0),
    "uirs_q": lambda n, q: (q, n - q),
    "random_rcv": lambda n, q: (0, n),
    "no_irs": lambda n, q: (0, 0),
}

# The config at one value of each sweep axis; ScenarioConfig checks the value.
SWEEP_AXES = {
    "groups": lambda config, v: config.replace(Q=v),
    "elements": lambda config, v: config.replace(N=v),
    "distance": lambda config, v: config.replace(irs_pos=(v, *config.irs_pos[1:])),
    "power": lambda config, v: config.replace(power_dbm=v),
}


@dataclass
class TrialResult:
    """One scheme's outcome on one channel realization: a CSV row and its solve.

    wsr_bits, finite and >= 0, and iterations are the solution's;
    recompute_wsr audits the row from solution (a bf.SolveResult) and
    frozen_phases, the phases at which the scheme's frozen elements were
    held. The row keeps those phases as frozen_state, the generator state
    just before run_scheme drew them: frozen_phases redraws them from it on
    each read and consumes no generator state.
    """

    scheme: str
    axis: str
    axis_value: float
    N: int
    Q: int
    trial: int
    seed: int
    wsr_bits: float
    iterations: int
    runtime_ms: float
    solution: bf.SolveResult
    frozen_state: dict

    def __post_init__(self):
        if not 0.0 <= self.wsr_bits < math.inf:
            raise ValueError(f"weighted sum rate must be finite and nonnegative, "
                             f"got {self.wsr_bits}")

    @property
    def frozen_phases(self):
        bit_generator = getattr(np.random, self.frozen_state["bit_generator"])()
        bit_generator.state = self.frozen_state
        n_frozen = SCHEME_DIMS[self.scheme](self.N, self.Q)[1]
        return np.random.Generator(bit_generator).uniform(0.0, 2.0 * np.pi, size=n_frozen)


def scheme_problem(scheme, channels, q, grouping=None, frozen=()):
    """(c_hat, h_bu_eff) of one scheme on one channel realization.

    c_hat (K, rows, M) stacks the cascades steered in real time: combined
    under grouping for the grouped schemes, else the leading elements, as
    many as SCHEME_DIMS gives. h_bu_eff adds to the direct links the last
    len(frozen) elements, held at the phases frozen. Only the element rows
    a scheme steers or freezes are formed, one user at a time.
    """
    n, users = channels.num_elements, range(channels.num_users)
    realtime, _ = SCHEME_DIMS[scheme](n, q)

    if grouping is None:
        c_hat = np.stack([channels.cascade(k, slice(realtime)) for k in users])
    else:
        c_hat = grp.combine_cascades(grouping, map(channels.cascade, users))
    if not len(frozen):
        return c_hat, channels.h_bu
    vf, tail = np.exp(1j * np.asarray(frozen)), slice(n - len(frozen), n)
    return c_hat, np.stack([channels.h_bu[k] + channels.cascade(k, tail).conj().T @ vf for k in users])


def run_scheme(scheme, channels, config, rng):
    """Solve one scheme on one channel realization and package the result.

    rng drives only scheme-internal randomness (the frozen phase draws of
    uirs_q and random_rcv); the channels are produced by the caller so every
    scheme in a trial sees the same realization. The solve runs at the
    default bf.SolverOptions.
    """
    if scheme not in SCHEME_DIMS:
        raise ValueError(f"unknown scheme {scheme!r}")
    opts = bf.SolverOptions()
    weights = np.asarray(config.weights, dtype=float)
    p_max = config.power_watts
    q = config.Q
    expected, n_frozen = SCHEME_DIMS[scheme](channels.num_elements, q)
    t0 = time.perf_counter()
    frozen_state = rng.bit_generator.state
    frozen = rng.uniform(0.0, 2.0 * np.pi, size=n_frozen)
    if scheme in ("ieg", "aeg"):
        grouping = grp.adjacent_grouping(channels.num_elements, q) if scheme == "aeg" else None
        res = bf.two_stage_solve(channels, q, p_max, weights, opts=opts, grouping=grouping)
    else:
        c_hat, h_bu_eff = scheme_problem(scheme, channels, q, frozen=frozen)
        res = bf.solve_fp(c_hat, h_bu_eff, channels.noise_power, p_max, weights,
                          np.zeros(c_hat.shape[1]), opts)

    if len(res.rcv) != expected:
        raise RuntimeError(f"{scheme} exposes {len(res.rcv)} real-time dims, expected {expected}")

    runtime_ms = (time.perf_counter() - t0) * 1e3
    return TrialResult(
        scheme=scheme, axis="", axis_value=0.0, N=config.N, Q=q, trial=0, seed=0,
        wsr_bits=res.wsr_bits, iterations=res.iterations, runtime_ms=runtime_ms,
        solution=res, frozen_state=frozen_state,
    )


def recompute_wsr(channels, result, config):
    """Re-derive the weighted sum rate of a row from its solution's beams and
    phases, its grouping and its frozen phases; never reads solution.wsr_bits."""
    sol = result.solution
    c_hat, h_bu = scheme_problem(result.scheme, channels, result.Q, grouping=sol.grouping,
                                 frozen=result.frozen_phases)
    h = bf.effective_channels(np.exp(1j * sol.rcv), c_hat, h_bu)
    weights = np.asarray(config.weights, dtype=float)
    return bf.wsr(bf.sinr_all(h, sol.precoder.w, channels.noise_power), weights)


def trial_draw(config, trial):
    """(seed, channels, scheme seeds) of trial `trial` of config's run, all from (config.seed,
    trial): the CSV's seed, the channels its schemes share, one SeedSequence per scheme."""
    ss = trial_seed_sequence(config.seed, trial)
    children = ss.spawn(1 + len(config.schemes))
    channels = build_scenario(config, np.random.default_rng(children[0]))
    return int(ss.generate_state(1)[0]), channels, children[1:]


def audit_rows(config, rows):
    """(row, reason) for each check a row of config's run fails: its rate is finite, >= 0 and
    recompute_wsr's bit for bit on the trial's channels (drawn once), its precoder power is
    within budget * (1 + 1e-9), and its trace_steps never fall by over 1e-8 of max(1, |step|)."""
    failed = []
    for trial, trial_rows in groupby(sorted(rows, key=lambda r: r.trial), lambda r: r.trial):
        channels = trial_draw(config, trial)[1]
        for row in trial_rows:
            rate, again = row.wsr_bits, recompute_wsr(channels, row, config)
            steps, power = row.solution.trace_steps, row.solution.precoder.power
            fall = -(np.diff(steps) / np.maximum(1.0, np.abs(steps[:-1]))).min(initial=0.0)
            failed += [(row, reason) for bad, reason in (
                (not 0.0 <= rate < math.inf, f"rate {rate} is not finite and >= 0"),
                (again != rate, f"recompute_wsr gives {again!r}, the row {rate!r}"),
                (power > config.power_watts * (1 + 1e-9),
                 f"precoder power {power!r} exceeds budget {config.power_watts!r}"),
                (fall > 1e-8, f"trace_steps fall by {fall:.2e} relative")) if bad]
        del channels                # so the next trial's draw does not hold two realizations
    return failed


def run_monte_carlo(config, axis="single", axis_value=None, out=None, record_timings=False,
                    log=None):
    """Run all configured schemes over seeded trials.

    Per-trial randomness descends from (config.seed, trial index), so results
    are independent of the trial count and bitwise reproducible. Channels are
    drawn once per trial and shared by every scheme. If out is given the CSV
    is written there (partial rows are flushed if a trial raises).
    """
    axis_value = float(config.Q if axis_value is None else axis_value)
    rows = []
    start = time.perf_counter()
    try:
        for trial in range(config.trials):
            trial_seed, channels, scheme_seeds = trial_draw(config, trial)
            for scheme, seed in zip(config.schemes, scheme_seeds):
                res = run_scheme(scheme, channels, config, np.random.default_rng(seed))
                res.axis = axis
                res.axis_value = axis_value
                res.trial = trial
                res.seed = trial_seed
                rows.append(res)
            del channels            # so the next trial's draw does not hold two realizations
    finally:
        if out is not None and rows:
            write_csv(rows, out, timings=record_timings)
    if log is not None:
        elapsed = time.perf_counter() - start
        print(f"{len(rows)} rows in {elapsed:.1f} s "
              f"({config.trials} trials x {len(config.schemes)} schemes)", file=log)
    return rows


def sweep(axis, values, config, out=None, record_timings=False, log=None):
    """Monte Carlo runs across one swept axis; returns all trial rows.

    Every value is checked before the first trial. If out is given, the rows
    of every finished axis value reach it even if a later one raises.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {tuple(SWEEP_AXES)}")
    if not len(values):
        raise ValueError("sweep needs at least one axis value")
    try:
        configs = [SWEEP_AXES[axis](config, value) for value in values]
    except ValueError as err:
        raise ValueError(f"sweep axis {axis}: {err}") from None
    labels = [float(v) for v in values]
    repeated = [v for v in dict.fromkeys(labels) if labels.count(v) > 1]
    if repeated:
        raise ValueError(f"sweep axis {axis}: values {repeated} repeat; list each value once")
    rows = []
    try:
        for cfg, value in zip(configs, labels):
            rows.extend(run_monte_carlo(cfg, axis=axis, axis_value=value, log=log))
    finally:
        if out is not None and rows:
            write_csv(rows, out, timings=record_timings)
            write_csv_aggregate(rows, _aggregate_path(out))
    return rows


def aggregate(rows):
    """Mean and standard error of wsr_bits per (scheme, axis_value)."""
    groups = {}
    for r in rows:
        groups.setdefault((r.scheme, r.axis, r.axis_value), []).append(r.wsr_bits)
    out = []
    for (scheme, axis, value), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        out.append({"scheme": scheme, "axis": axis, "axis_value": value,
                    "n_trials": arr.size, "wsr_mean": float(arr.mean()), "wsr_stderr": stderr})
    return out


def rows_to_csv_text(rows, timings=False):
    """Render trial rows as CSV text with the pinned schema.

    Rows are sorted by (scheme, axis_value, trial); runtime_ms is written as
    0 unless timings is requested, keeping the output byte-reproducible.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(rows, key=lambda r: (r.scheme, r.axis_value, r.trial)):
        runtime = r.runtime_ms if timings else 0.0
        writer.writerow([r.scheme, r.axis, r.axis_value, r.N, r.Q, r.trial, r.seed,
                         float(r.wsr_bits), r.iterations, float(runtime)])
    return buf.getvalue()


def write_csv(rows, path, timings=False):
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv_text(rows, timings=timings))


def _aggregate_path(path):
    path = str(path)
    return path[:-4] + "_agg.csv" if path.endswith(".csv") else path + "_agg.csv"


def write_csv_aggregate(rows, path):
    """Write aggregate(rows) as CSV, its header the rows' keys; rows must be non-empty."""
    aggs = aggregate(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=aggs[0], lineterminator="\n")
        writer.writeheader()
        writer.writerows(aggs)
