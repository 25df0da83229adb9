"""Batch command-line interface.

Subcommands: simulate (one configuration, all schemes), sweep (one axis),
asymptotics (closed-form vs Monte Carlo tables), validate (acceptance suite;
nonzero exit on any failure).
"""

import argparse
import csv
import sys

import numpy as np

from . import asymptotics as asym
from . import harness
from .config import ScenarioConfig


def _load_config(args):
    cfg = ScenarioConfig.from_yaml(args.config) if args.config else ScenarioConfig()
    overrides = {"seed": args.seed, "trials": args.trials, "N": 10000 if args.full_scale else None}
    return cfg.replace(**{key: value for key, value in overrides.items() if value is not None})


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _report_unconverged(rows):
    capped = sum(not r.solution.converged for r in rows)
    print(f"{capped} of {len(rows)} solves stopped at max_outer without converging")


def _cmd_simulate(args):
    cfg = _load_config(args)
    rows = harness.run_monte_carlo(cfg, out=args.out, record_timings=args.timings,
                                   log=None if args.quiet else sys.stderr)
    if not args.quiet:
        for agg in harness.aggregate(rows):
            print(f"{agg['scheme']:12s} mean WSR {agg['wsr_mean']:.4f} bits/s/Hz "
                  f"(+- {agg['wsr_stderr']:.4f}, {agg['n_trials']} trials)")
        _report_unconverged(rows)
        print(f"rows written to {args.out}")
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ValueError(f"--values takes comma-separated numbers, got {args.values!r}") from None
    rows = harness.sweep(args.axis, values, cfg, out=args.out, record_timings=args.timings,
                         log=None if args.quiet else sys.stderr)
    if not args.quiet:
        _report_unconverged(rows)
        print(f"rows written to {args.out} (aggregate alongside)")
    return 0


def _cmd_asymptotics(args):
    if args.seed < 0:       # as ScenarioConfig refuses it for simulate and sweep
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rows = [("quantity", "Q", "mu", "kappa", "closed_form", "monte_carlo", "rel_err")]
    for kappa in (0.0, 1.0, 10.0):
        q = 1024
        inputs = asym.AsymptoticInputs(N=q, Q=q, kappa_bi=kappa, kappa_iu=kappa)
        closed = asym.uirs_gain(q, inputs)
        sim = asym.simulate_ungrouped_gain(q, inputs, args.trials, rng)
        rows.append(("ungrouped_gain", q, 1, kappa, closed, sim, abs(sim - closed) / closed))
    for kappa in (1.0, 10.0):
        inputs = asym.AsymptoticInputs(N=4 * 512, Q=4, kappa_bi=kappa, kappa_iu=kappa)
        closed = asym.ieg_gain(inputs)
        sim = asym.simulate_grouped_gain(inputs, args.trials, rng)
        rows.append(("grouped_gain", 4, 512, kappa, closed, sim, abs(sim - closed) / closed))
        report = asym.validate_combined_cascade_monte_carlo(inputs, trials=max(200, args.trials), rng=rng)
        rows.append(("grouped_mean_modulus", 4, 512, kappa, float(np.abs(report.mean_pred[0])),
                     float(np.abs(report.mean_emp).mean()), report.modulus_err))
        rows.append(("grouped_variance", 4, 512, kappa, report.variance_pred,
                     float(report.variance_emp.mean()), report.variance_err))
    for kappa in (1.0, 10.0, 100.0):
        loss = asym.performance_loss(kappa, kappa, 10 ** 4)
        rows.append(("grouping_loss", 10 ** 4, 10 ** 4, kappa, loss, float("nan"), float("nan")))

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"asymptotics table written to {args.out}")
    return 0


def _cmd_validate(args):
    from . import acceptance        # imported here: only validate runs the suite (about 10 ms)

    names = args.only.split(",") if args.only else None
    results = acceptance.run(names=names)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 1 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(prog="iegirs",
                                description="Element-grouped IRS simulations and validation")
    sub = p.add_subparsers(dest="command", required=True)

    # the scenario options that simulate and sweep share
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--config", help="YAML scenario file (defaults if omitted)")
    scene.add_argument("--seed", type=int, help="override master seed")
    scene.add_argument("--trials", type=_positive_int, help="override trial count")
    scene.add_argument("--full-scale", action="store_true", help="use N=10000 elements")
    scene.add_argument("--timings", action="store_true",
                       help="record wall-clock runtimes in the CSV (breaks byte reproducibility)")
    scene.add_argument("--quiet", action="store_true")

    ps = sub.add_parser("simulate", parents=[scene],
                        help="run all configured schemes on one scenario")
    ps.add_argument("--out", default="results.csv", help="output CSV path")
    ps.set_defaults(fn=_cmd_simulate)

    pw = sub.add_parser("sweep", parents=[scene], help="Monte Carlo sweep over one axis")
    pw.add_argument("--axis", required=True, choices=tuple(harness.SWEEP_AXES))
    pw.add_argument("--values", required=True, help="comma-separated axis values")
    pw.add_argument("--out", default="sweep.csv", help="output CSV path")
    pw.set_defaults(fn=_cmd_sweep)

    pa = sub.add_parser("asymptotics", help="closed-form vs Monte Carlo validation table")
    pa.add_argument("--out", help="CSV path (stdout if omitted)")
    pa.add_argument("--trials", type=_positive_int, default=100)
    pa.add_argument("--seed", type=int, default=0)
    pa.set_defaults(fn=_cmd_asymptotics)

    pv = sub.add_parser("validate", help="run the acceptance suite")
    pv.add_argument("--only", help="comma-separated criterion names (e.g. c01,c05)")
    pv.set_defaults(fn=_cmd_validate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
