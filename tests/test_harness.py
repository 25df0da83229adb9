import dataclasses
import gc
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from iegirs import harness
from iegirs.beamforming import SolverOptions, two_stage_solve
from iegirs.channel import ChannelSet, build_scenario
from iegirs.cli import build_parser, main as cli_main
from iegirs.config import SCHEME_DIMS, ScenarioConfig
from iegirs.grouping import GroupingMatrix, adjacent_grouping
from iegirs.harness import (aggregate, audit_rows, recompute_wsr, run_monte_carlo, run_scheme,
                            scheme_problem, sweep, write_csv)
import oracles

def _tiny_config(**overrides):
    return ScenarioConfig(**{**dict(N=32, Q=2, M=2, K=2, trials=2, seed=13), **overrides})


class TestRunScheme:
    def test_no_reflector_with_dead_direct_link_rates_zero(self):
        cfg = _tiny_config()
        zeros_bu = np.zeros((cfg.K, cfg.M), dtype=complex)
        rng = np.random.default_rng(0)
        h_bi = (rng.standard_normal((cfg.M, cfg.N)) + 1j * rng.standard_normal((cfg.M, cfg.N)))
        h_iu = (rng.standard_normal((cfg.K, cfg.N)) + 1j * rng.standard_normal((cfg.K, cfg.N)))
        ch = ChannelSet(h_bi=h_bi, h_iu=h_iu, h_bu=zeros_bu, h_bi_stat=h_bi, h_iu_stat=h_iu,
                        h_bu_stat=zeros_bu, noise_power=cfg.noise_watts)
        res = run_scheme("no_irs", ch, cfg, 1)
        assert res.wsr_bits == 0.0

    def test_pilot_budget_accounting(self):
        cfg = _tiny_config(schemes=("ieg", "aeg", "uirs_q", "random_rcv", "no_irs"), trials=1)
        rows = run_monte_carlo(cfg)
        dims = {r.scheme: len(r.solution.rcv) for r in rows}
        assert dims == {"ieg": 2, "aeg": 2, "uirs_q": 2, "random_rcv": 0, "no_irs": 0}

    def test_unknown_scheme(self):
        cfg = _tiny_config()
        ch = build_scenario(cfg, np.random.default_rng(2))
        with pytest.raises(ValueError):
            run_scheme("beam_hopping", ch, cfg, 2)

    def test_realtime_dims_invariant_raises(self, monkeypatch):
        cfg = _tiny_config()
        channels = build_scenario(cfg, np.random.default_rng(0))
        monkeypatch.setitem(harness.SCHEME_DIMS, "aeg", lambda n, q: (q + 1, 0))
        with pytest.raises(RuntimeError, match="real-time dims"):
            run_scheme("aeg", channels, cfg, 1)

    def test_capped_solve_flagged_outside_csv(self, monkeypatch, tmp_path):
        cfg = _tiny_config(schemes=("ieg", "aeg", "uirs_q"), trials=1)
        rows = run_monte_carlo(cfg)
        monkeypatch.setattr(harness.bf, "SolverOptions", lambda: SolverOptions(max_outer=2))
        capped = run_monte_carlo(cfg)
        assert all(r.solution.converged and r.iterations > 2 for r in rows)
        assert not any(r.solution.converged for r in capped)
        assert all(r.iterations == 2 for r in capped)
        write_csv(capped, tmp_path / "capped.csv")
        lines = (tmp_path / "capped.csv").read_text().splitlines()   # the flag is not a CSV column
        assert lines[0] == ",".join(harness.CSV_HEADER)
        assert [len(line.split(",")) for line in lines] == [len(harness.CSV_HEADER)] * 4

    def test_high_power_budget_runs(self):
        # at 100 dBm a binding precoder meets its 10 MW budget only to rounding,
        # which an absolute 1e-9 W slack refused in stage 1
        cfg = ScenarioConfig(N=16, Q=4, power_dbm=100.0, trials=3, schemes=("ieg", "aeg", "no_irs"))
        rows = run_monte_carlo(cfg)
        assert len(rows) == 9
        assert audit_rows(cfg, rows) == []

    def test_adjacent_at_full_groups_equals_ungrouped(self):
        cfg = _tiny_config(N=16, Q=16)
        ch = build_scenario(cfg, np.random.default_rng(3))
        res_aeg = run_scheme("aeg", ch, cfg, 4)
        res_idn = two_stage_solve(ch, 16, p_max=cfg.power_watts,
                                  weights=np.asarray(cfg.weights, dtype=float),
                                  grouping=GroupingMatrix(assignment=np.arange(1, 17), num_groups=16))
        assert res_aeg.wsr_bits == res_idn.wsr_bits
        assert np.array_equal(res_aeg.solution.grouping.assignment, res_idn.grouping.assignment)


class TestAudit:
    def test_recomputed_rates_match(self):
        # bit for bit: the returned phases are exactly those the rate was computed at; the
        # second audit proves that each row's scheme_seed gives the same frozen phases again
        for cfg in (ScenarioConfig(N=256, Q=4, trials=3), ScenarioConfig(N=16, Q=16, trials=3),
                    ScenarioConfig(N=64, Q=8, trials=3, weights=(1.0, 2.0, 0.5, 1.5))):
            rows = run_monte_carlo(cfg)
            assert len(rows) == 15 and audit_rows(cfg, rows) == audit_rows(cfg, rows) == []

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_row_refuses_a_rate_that_is_not_finite_and_nonnegative(self, rate):
        cfg = _tiny_config(trials=1)
        row = run_scheme("no_irs", build_scenario(cfg, np.random.default_rng(0)), cfg, 1)
        with pytest.raises(ValueError, match="^weighted sum rate must be finite and nonnegative"):
            dataclasses.replace(row, wsr_bits=rate)

    def test_schemes_share_channels(self, monkeypatch):
        # both schemes' stored solutions audit against the same realization, drawn once
        cfg = _tiny_config(schemes=("aeg", "no_irs"), trials=1)
        rows = run_monte_carlo(cfg)
        draws, draw = [], harness.trial_draw
        monkeypatch.setattr(harness, "trial_draw", lambda *args: draws.append(args) or draw(*args))
        assert audit_rows(cfg, rows) == [] and draws == [(cfg, 0)]

    @pytest.mark.parametrize("reason", ["recompute_wsr gives", "precoder power",
                                        "trace_steps fall by 1.00e-06 relative"])
    def test_faulty_row_named(self, monkeypatch, reason):
        # one row off by one ulp of its recomputed rate, by power just past the budget's
        # slack, or by a closing objective that falls 1e-6 relative
        cfg = _tiny_config()
        rows = run_monte_carlo(cfg)
        row, sol, recompute = rows[-2], rows[-2].solution, harness.recompute_wsr
        if reason.startswith("recompute_wsr"):
            monkeypatch.setattr(harness, "recompute_wsr", lambda ch, r, c: np.nextafter(
                recompute(ch, r, c), np.inf) if r is row else recompute(ch, r, c))
        elif reason.startswith("precoder"):
            sol.precoder = SimpleNamespace(w=sol.precoder.w, power=cfg.power_watts * (1 + 2e-9))
        else:
            last = sol.trace_steps[-1]
            sol.trace_steps = np.append(sol.trace_steps, last - 1e-6 * max(1.0, abs(last)))
        (failed, why), = audit_rows(cfg, rows)
        assert failed is row and why.startswith(reason), why


class TestRowMemory:
    def test_rows_hold_no_array_of_length_n(self):
        # bytes the rows of one trial keep, from the rows of trials 1 and 2 of
        # three: each row keeps O(Q) arrays, plus one byte per element for the
        # grouping of ieg and of aeg. Holding the frozen phases or an int
        # grouping costs 8 bytes per element each, about 34 in all.
        n = 8192
        cfg = ScenarioConfig(N=n, Q=4, K=1, M=1, trials=3)
        tracemalloc.start()
        try:
            rows = run_monte_carlo(cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del rows[len(cfg.schemes):]
            gc.collect()
            per_trial = (held - tracemalloc.get_traced_memory()[0]) / 2
        finally:
            tracemalloc.stop()
        assert 0 < per_trial <= 4 * n + 64 * 1024


class TestTrialMemory:
    # traced peaks of one full trial's two big steps, N = 8192 and K = M = 4:
    # a scene returns four N-length stacks of 64 bytes per element, and stage
    # 1 needs one (K, N, M) statistical stack of 256. Before each array was
    # formed once, the peaks were 466 and 467 bytes per element; now about
    # 321 and 358.
    N = 8192
    CFG = ScenarioConfig(N=N, Q=4, K=4, M=4)

    @staticmethod
    def _traced_peak(call):
        """(result, peak traced bytes above those held when call starts)."""
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = call()
            return out, tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def test_scene_peak_within_its_arrays(self):
        ch, peak = self._traced_peak(lambda: build_scenario(self.CFG, np.random.default_rng(1)))
        returned = sum(getattr(ch, name).nbytes for name in
                       ("h_bi", "h_iu", "h_bu", "h_bi_stat", "h_iu_stat", "h_bu_stat"))
        assert returned >= 256 * self.N
        assert peak <= 1.4 * returned

    def test_solve_peak_within_one_statistical_stack(self):
        cfg = self.CFG
        ch = build_scenario(cfg, np.random.default_rng(1))
        res, peak = self._traced_peak(lambda: two_stage_solve(ch, cfg.Q, cfg.power_watts,
                                                              cfg.weights))
        assert res.iterations >= 1
        assert peak <= 1.5 * cfg.K * cfg.N * cfg.M * 16


def _scheme_grouping(scheme, cfg, rng):
    """The grouping of one scheme's audit: a random grouping for ieg, blocks for aeg, else None."""
    if scheme == "aeg":
        return adjacent_grouping(cfg.N, cfg.Q)
    if scheme == "ieg":
        labels = rng.permutation(np.arange(cfg.N) % cfg.Q) + 1
        return GroupingMatrix(assignment=labels, num_groups=cfg.Q)
    return None


class TestSchemeProblem:
    @pytest.mark.parametrize("scheme", ["uirs_q", "random_rcv", "no_irs"])
    def test_stacks_keep_np_stack_layout(self, scheme):
        # the solve's sums read c_hat in this layout; another one moves their last bits
        cfg = _tiny_config()
        ch = build_scenario(cfg, np.random.default_rng(0))
        n_frozen = SCHEME_DIMS[scheme](cfg.N, cfg.Q)[1]
        c_hat, h_bu = scheme_problem(scheme, ch, cfg.Q, 1)
        ref, ref_bu = oracles.scheme_problem(scheme, ch, cfg.Q, 1)
        assert c_hat.strides == ref.strides and c_hat.tobytes() == ref.tobytes()
        assert h_bu.tobytes() == ref_bu.tobytes()
        assert (h_bu is ch.h_bu) == (not n_frozen)

    @pytest.mark.parametrize("n, q", [(16, 4), (16, 16), (1, 1)])
    @pytest.mark.parametrize("k, m", [(2, 2), (3, 2)], ids=["K=M=2", "K=3>M=2"])
    @pytest.mark.parametrize("scheme", tuple(SCHEME_DIMS))
    def test_equals_reference_value_and_stride(self, scheme, n, q, k, m):
        # the solve's sums read c_hat in its layout, so the strides must match too
        cfg = ScenarioConfig(N=n, Q=q, K=k, M=m, seed=3)
        ch = build_scenario(cfg, np.random.default_rng(7))
        grouping = _scheme_grouping(scheme, cfg, np.random.default_rng(8))
        c_hat, h_bu = scheme_problem(scheme, ch, q, 9, grouping=grouping)
        ref_c, ref_bu = oracles.scheme_problem(scheme, ch, q, 9, grouping=grouping)
        for got, ref in ((c_hat, ref_c), (h_bu, ref_bu)):
            assert got.shape == ref.shape and got.strides == ref.strides
            assert got.tobytes() == ref.tobytes()
        assert (h_bu is ch.h_bu) == (not SCHEME_DIMS[scheme](n, q)[1])

    def test_element_rows_formed_per_user(self, monkeypatch):
        # rows of the per-element cascade formed for one solve or audit, per user:
        # no_irs forms none, uirs_q its Q head and N - Q tail rows
        cfg = ScenarioConfig(N=16, Q=4, K=3, M=2, trials=1, seed=3)
        rows = run_monte_carlo(cfg)
        channels = harness.trial_draw(cfg, 0)[1]
        formed = []

        def counted(*args):
            out = cascade(*args)
            formed.append(len(out))
            return out

        cascade = ChannelSet.cascade
        monkeypatch.setattr(ChannelSet, "cascade", counted)
        expected = {"ieg": cfg.N, "aeg": cfg.N, "uirs_q": cfg.N, "random_rcv": cfg.N, "no_irs": 0}
        for row in rows:
            formed.clear()
            recompute_wsr(channels, row, cfg)
            assert sum(formed) == expected[row.scheme] * cfg.K, row.scheme
            if row.scheme in ("uirs_q", "random_rcv", "no_irs"):
                formed.clear()
                run_scheme(row.scheme, channels, cfg, 0)
                assert sum(formed) == expected[row.scheme] * cfg.K, row.scheme


# ROADMAP item 7's probes: scenes the default grid never reaches
DEGENERATE_SCENES = {
    "kappa0-all": dict(kappa_bi=0.0, kappa_iu=0.0, kappa_bu=0.0),
    "kappa_bi0": dict(kappa_bi=0.0),
    "kappa_iu0": dict(kappa_iu=0.0),
    "coincident-users": dict(user_radius=0.0),
    "K4>M2": dict(K=4, M=2),
    "M=K=1": dict(M=1, K=1),
    "N=Q=1": dict(N=1, Q=1),
    "Q=1": dict(Q=1),
    "Q=N-1": dict(Q=15),
    "Q=N": dict(Q=16),
    "zero-weight": dict(weights=(0.0, 1.0, 1.0, 1.0)),
    "all-zero-weights": dict(weights=(0.0, 0.0, 0.0, 0.0)),
    "unobscured": dict(scenario="unobscured"),
}


@pytest.mark.parametrize("scene", DEGENERATE_SCENES.values(), ids=DEGENERATE_SCENES)
def test_degenerate_scene_rows_audit(scene):
    # every scheme on each scene passes the row audit, with no warning (each raised as an error)
    cfg = ScenarioConfig(**{"N": 16, "Q": 4, "trials": 2, "seed": 21, **scene})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_monte_carlo(cfg)
        assert len(rows) == cfg.trials * len(SCHEME_DIMS)
        assert audit_rows(cfg, rows) == []


class TestDeterminism:
    def test_first_trial_independent_of_trial_count(self):
        cfg1 = _tiny_config(schemes=("aeg",), trials=1)
        cfg3 = _tiny_config(schemes=("aeg",), trials=3)
        row1 = run_monte_carlo(cfg1)[0]
        row3 = run_monte_carlo(cfg3)[0]
        assert row1.wsr_bits == row3.wsr_bits
        assert row1.seed == row3.seed

    def test_empty_scheme_list_rejected(self):
        with pytest.raises(ValueError, match="^schemes must list at least one scheme$"):
            _tiny_config(schemes=())

    def test_runtime_column_zeroed_by_default(self, tmp_path):
        cfg = _tiny_config(schemes=("no_irs",), trials=1)
        rows = run_monte_carlo(cfg)
        assert rows[0].runtime_ms > 0          # measured on the result object
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        write_csv(rows, plain)
        write_csv(rows, timed, timings=True)
        assert float(plain.read_text().splitlines()[1].split(",")[-1]) == 0.0
        assert float(timed.read_text().splitlines()[1].split(",")[-1]) > 0


class TestSweepAndAggregate:
    def test_groups_axis(self):
        cfg = _tiny_config(schemes=("aeg", "no_irs"))
        rows = sweep("groups", [1, 2], cfg)
        assert len(rows) == 2 * cfg.trials * 2
        assert {r.axis_value for r in rows} == {1.0, 2.0}
        assert {r.Q for r in rows} == {1, 2}

    def test_distance_axis_moves_reflector(self):
        cfg = _tiny_config(schemes=("no_irs",), trials=1)
        rows = sweep("distance", [150.0], cfg)
        assert rows[0].axis == "distance"
        assert rows[0].axis_value == 150.0

    def test_invalid_axis_and_empty_values(self):
        cfg = _tiny_config()
        with pytest.raises(ValueError):
            sweep("bandwidth", [1], cfg)
        with pytest.raises(ValueError):
            sweep("groups", [], cfg)

    def test_aggregate_mean_and_stderr(self):
        cfg = _tiny_config(schemes=("aeg",), trials=4)
        rows = run_monte_carlo(cfg)
        agg = aggregate(rows)[0]
        vals = np.array([r.wsr_bits for r in rows])
        assert abs(agg["wsr_mean"] - vals.mean()) <= 1e-15
        assert abs(agg["wsr_stderr"] - vals.std(ddof=1) / 2.0) <= 1e-15
        assert agg["n_trials"] == 4

    def test_power_axis_increases_rate(self):
        cfg = _tiny_config(N=64, Q=4, schemes=("aeg", "no_irs"), trials=3, scenario="unobscured")
        rows = sweep("power", [0.0, 20.0], cfg)
        means = {(a["scheme"], a["axis_value"]): a["wsr_mean"] for a in aggregate(rows)}
        for scheme in ("aeg", "no_irs"):
            assert means[(scheme, 20.0)] > means[(scheme, 0.0)]

    def test_group_count_sweep_trend(self):
        # mean rate non-decreasing in the group count, biggest gain 1 -> 2
        cfg = ScenarioConfig(N=1024, Q=4, M=4, K=4, scenario="obscured", trials=6,
                             seed=21, schemes=("ieg",))
        rows = sweep("groups", [1, 2, 4, 8], cfg)
        means = {a["axis_value"]: a["wsr_mean"] for a in aggregate(rows)}
        seq = [means[q] for q in (1.0, 2.0, 4.0, 8.0)]
        assert np.all(np.diff(seq) >= 0)
        jumps = np.diff(seq)
        assert jumps[0] > jumps[1] and jumps[0] > jumps[2]

    def test_element_growth_contrast(self):
        # growing the surface pays off far more with statistical grouping
        # than with adjacent blocks
        cfg = ScenarioConfig(N=256, Q=4, M=4, K=4, scenario="obscured", trials=6,
                             seed=22, schemes=("ieg", "aeg"))
        rows = sweep("elements", [256, 4096], cfg)
        means = {(a["scheme"], a["axis_value"]): a["wsr_mean"] for a in aggregate(rows)}
        growth_ieg = means[("ieg", 4096.0)] - means[("ieg", 256.0)]
        growth_aeg = means[("aeg", 4096.0)] - means[("aeg", 256.0)]
        assert growth_ieg > 0
        assert growth_ieg > 3.0 * max(growth_aeg, 0.0)

    def test_csv_files_written(self, tmp_path):
        cfg = _tiny_config(schemes=("no_irs",), trials=1)
        out = tmp_path / "rows.csv"
        sweep("groups", [2], cfg, out=str(out))
        assert out.exists()
        assert (tmp_path / "rows_agg.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header == "scheme,axis,axis_value,N,Q,trial,seed,wsr_bits_per_hz,iterations,runtime_ms"

    def test_partial_flush_on_failure(self, tmp_path, monkeypatch):
        cfg = _tiny_config(schemes=("no_irs",), trials=3)
        out = tmp_path / "partial.csv"
        calls = {"n": 0}
        original = harness.run_scheme

        def flaky(*args, **kwargs):
            if calls["n"] >= 2:
                raise RuntimeError("boom")
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "run_scheme", flaky)
        with pytest.raises(RuntimeError):
            run_monte_carlo(cfg, out=str(out))
        assert out.exists()
        assert len(out.read_text().strip().splitlines()) == 1 + 2

    def test_sweep_writes_finished_values_on_failure(self, tmp_path, monkeypatch):
        cfg = _tiny_config(schemes=("no_irs",), trials=2)
        out = tmp_path / "sweep.csv"
        original = harness.run_scheme

        def fails_on_second_value(scheme, channels, config, rng):
            if config.Q == 2:
                raise RuntimeError("boom")
            return original(scheme, channels, config, rng)

        monkeypatch.setattr(harness, "run_scheme", fails_on_second_value)
        with pytest.raises(RuntimeError):
            sweep("groups", [1, 2], cfg, out=str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2
        assert {line.split(",")[2] for line in lines[1:]} == {"1.0"}
        agg = (tmp_path / "sweep_agg.csv").read_text().strip().splitlines()
        assert len(agg) == 1 + 1 and agg[1].startswith("no_irs,groups,1.0,2,")

    @pytest.mark.parametrize("axis, values", [("groups", [2.5]), ("groups", [1, 2.5]),
                                              ("elements", [16, 32.5]), ("groups", [float("nan")]),
                                              ("elements", [float("inf")]),
                                              ("power", [0, float("nan")]),
                                              ("distance", [150, float("inf")]),
                                              ("groups", [2, 64]), ("elements", [32, 1]),
                                              ("groups", [2, 2]), ("power", [10, 4000]),
                                              ("power", [10, -4000])])
    def test_count_axis_rejects_fractions_before_any_trial(self, axis, values, tmp_path,
                                                           monkeypatch):
        # Q and N are counts: int() would solve Q = 2 and label its rows 2.5.
        # A bad or repeated later value ran every trial of the first value and
        # wrote a partial CSV before it raised (N = 32, Q = 2).
        runs = []
        monkeypatch.setattr(harness, "run_monte_carlo", lambda *a, **kw: runs.append(a) or [])
        cfg = _tiny_config(schemes=("no_irs",))
        cfg_path, out = _config_file(tmp_path, cfg.to_dict()), tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match=f"^sweep axis {axis}: "):
            sweep(axis, values, cfg, out=str(out))
        assert runs == [] and not out.exists()
        with pytest.raises(ValueError, match=f"^sweep axis {axis}: "):
            cli_main(["sweep", "--axis", axis, "--values", ",".join(map(str, values)),
                      "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert runs == [] and not out.exists()


def _config_file(tmp_path, raw=None):
    """tmp_path / scene.yaml holding the config mapping raw, by default a tiny config's."""
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(raw or _tiny_config(schemes=("aeg", "no_irs")).to_dict()))
    return path


class TestCli:
    def test_simulate(self, tmp_path, capsys):
        cfg_path = _config_file(tmp_path)
        out = tmp_path / "out.csv"
        rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "mean WSR" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_capped_solves_reported(self, tmp_path, capsys, monkeypatch, command):
        cfg_path = _config_file(tmp_path)
        monkeypatch.setattr(harness.bf, "SolverOptions", lambda: SolverOptions(max_outer=2))
        args = {"simulate": ["simulate"], "sweep": ["sweep", "--axis", "groups", "--values", "2"]}
        capped = sum(not r.solution.converged
                     for r in run_monte_carlo(_tiny_config(schemes=("aeg", "no_irs"))))
        assert capped > 0
        out = tmp_path / "out.csv"
        assert cli_main(args[command] + ["--config", str(cfg_path), "--out", str(out)]) == 0
        assert (f"{capped} of 4 solves stopped at max_outer without converging"
                in capsys.readouterr().out)
        cli_main(args[command] + ["--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert "max_outer" not in capsys.readouterr().out

    def test_simulate_trial_override(self, tmp_path):
        cfg_path = _config_file(tmp_path)
        out = tmp_path / "out.csv"
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                  "--trials", "1", "--quiet"])
        assert len(out.read_text().strip().splitlines()) == 1 + 2

    def test_sweep(self, tmp_path):
        cfg_path = _config_file(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = cli_main(["sweep", "--axis", "groups", "--values", "1,2", "--config",
                       str(cfg_path), "--out", str(out), "--quiet"])
        assert rc == 0
        assert out.exists() and (tmp_path / "sweep_agg.csv").exists()

    def test_asymptotics_table(self, tmp_path):
        out = tmp_path / "asym.csv"
        rc = cli_main(["asymptotics", "--out", str(out), "--trials", "10"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("quantity,")
        assert len(lines) > 5

    def test_validate_selected(self, capsys):
        rc = cli_main(["validate", "--only", "c05"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("only, unknown", [("c99", "'c99'"), ("c05,c5", "'c5'")],
                             ids=["c99", "c05,c5"])
    def test_validate_refuses_unknown_names(self, capsys, only, unknown):
        # a typo must not turn the gate into a pass that ran nothing, or less than asked
        with pytest.raises(ValueError, match=unknown):
            cli_main(["validate", "--only", only])
        assert capsys.readouterr().out == ""

    def test_validate_fails_nonzero(self, capsys, monkeypatch):
        from iegirs import acceptance

        def c99_always_red():
            return False, "forced"

        monkeypatch.setattr(acceptance, "CRITERIA", (c99_always_red,))
        rc = cli_main(["validate"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_whole_number_floats_in_yaml(self, tmp_path):
        # YAML "Q: 2.0" is Q = 2: the same CSV bytes as the int spelling
        raw = _tiny_config(schemes=("aeg", "no_irs")).to_dict()
        texts = []
        for spelling in (int, float):
            raw["system"] = {k: spelling(v) for k, v in raw["system"].items()}
            raw["trials"] = spelling(raw["trials"])
            cfg_path, out = _config_file(tmp_path, raw), tmp_path / f"{spelling.__name__}.csv"
            assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
            texts.append(out.read_bytes())
        assert "Q: 2.0" in cfg_path.read_text() and texts[0] == texts[1]
        raw["system"]["N"] = 32.5
        _config_file(tmp_path, raw)
        with pytest.raises(ValueError, match="N must be a whole number, got 32.5"):
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])

    def test_seed_whole_number_in_yaml(self, tmp_path):
        # YAML "seed: 2.0" is seed 2, byte for byte; "seed: 2.5" no longer
        # runs silently as seed 2
        raw = _tiny_config(schemes=("aeg", "no_irs"), trials=1).to_dict()
        texts = []
        for seed in (2, 2.0):
            raw["seed"] = seed
            cfg_path = _config_file(tmp_path, raw)
            out = tmp_path / f"{type(seed).__name__}.csv"
            assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
            texts.append(out.read_bytes())
        assert "seed: 2.0" in cfg_path.read_text() and texts[0] == texts[1]
        raw["seed"] = 2.5
        _config_file(tmp_path, raw)
        with pytest.raises(ValueError, match="seed must be a whole number, got 2.5"):
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])

    def test_quoted_power_in_yaml_rejected(self, tmp_path):
        # a quoted power_dbm is refused when the config loads, not by a
        # TypeError in power_watts once the run has started
        raw = _tiny_config(schemes=("no_irs",)).to_dict()
        raw["power_dbm"] = "10"
        cfg_path = _config_file(tmp_path, raw)
        with pytest.raises(ValueError, match="power_dbm must be a finite real number, got '10'"):
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("section, key, value, field", [
        ("geometry", "user_radius", -2.0, "user_radius"), (None, "seed", -1, "seed"),
        ("kappas", "bi", -1.0, "kappa_bi")])
    def test_negative_values_in_yaml_rejected_before_any_trial(self, tmp_path, section, key,
                                                              value, field):
        # user_radius = -2 ran silently with mirrored users; seed = -1 and
        # kappa_bi = -1 died inside the first trial with messages naming no field
        raw = _tiny_config(schemes=("aeg",), trials=1).to_dict()
        (raw[section] if section else raw)[key] = value
        cfg_path, out = _config_file(tmp_path, raw), tmp_path / "o.csv"
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got {value!r}"):
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert not out.exists()

    def test_repeated_scheme_in_yaml_rejected_before_any_trial(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_scheme", lambda *a, **kw: runs.append(a))
        raw = _tiny_config().to_dict()
        raw["schemes"] = ["aeg", "aeg", "no_irs"]
        cfg_path, out = _config_file(tmp_path, raw), tmp_path / "o.csv"
        with pytest.raises(ValueError, match=r"schemes \['aeg'\] repeat"):
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert runs == [] and not out.exists()

    def test_seed_override_below_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1"):
            cli_main(["simulate", "--seed", "-1", "--out", str(tmp_path / "o.csv"), "--quiet"])

    def test_asymptotics_seed_below_zero_rejected_before_any_draw(self, tmp_path, monkeypatch):
        # unchecked, numpy's default_rng died with "expected non-negative integer"
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a))
        out = tmp_path / "asym.csv"
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            cli_main(["asymptotics", "--seed", "-1", "--trials", "2", "--out", str(out)])
        assert draws == [] and not out.exists()

    @pytest.mark.parametrize("values", ["4,,8", "4,eight", ""])
    def test_sweep_values_not_numbers_named(self, tmp_path, values):
        # unchecked, "4,,8" died with a bare "could not convert string to float: ''"
        out = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match=f"^--values takes comma-separated numbers, got '{values}'"):
            cli_main(["sweep", "--axis", "groups", "--values", values, "--out", str(out), "--quiet"])
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        raw = _tiny_config().to_dict()
        raw["power"] = 30
        cfg_path = _config_file(tmp_path, raw)
        with pytest.raises(ValueError, match="power"):
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])

    def test_simulate_and_sweep_share_scene_options(self):
        shared = ["--config", "scene.yaml", "--seed", "3", "--trials", "2", "--full-scale",
                  "--timings", "--quiet"]
        sim = build_parser().parse_args(["simulate", *shared])
        swp = build_parser().parse_args(["sweep", "--axis", "groups", "--values", "2", *shared])
        keys = ("config", "seed", "trials", "full_scale", "timings", "quiet")
        assert [getattr(sim, k) for k in keys] == [getattr(swp, k) for k in keys] \
            == ["scene.yaml", 3, 2, True, True, True]
        assert (sim.out, swp.out) == ("results.csv", "sweep.csv")

    def test_full_scale_flag(self, tmp_path):
        cfg = _tiny_config(schemes=("no_irs",), trials=1)
        cfg_path = _config_file(tmp_path, cfg.to_dict())
        out = tmp_path / "full.csv"
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                  "--full-scale", "--quiet"])
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[3] == "10000"
