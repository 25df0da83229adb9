import dataclasses
import functools
import os
import subprocess
import sys
import threading
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import iegirs
from iegirs import asymptotics
from iegirs.asymptotics import (AsymptoticInputs, ieg_gain, combined_cascade_distribution,
                                performance_loss, simulate_grouped_cascades,
                                simulate_grouped_gain, simulate_ungrouped_gain, uirs_gain,
                                validate_combined_cascade_monte_carlo, _kurtosis)
from iegirs.channel import DRAW_BLOCK_BYTES, cascade_draws
from iegirs.grouping import combine_cascade
from iegirs.mathkit import group_shrink_factor
import oracles


class TestInputs:
    def test_group_size_must_divide(self):
        with pytest.raises(ValueError):
            AsymptoticInputs(N=10, Q=4)

    @pytest.mark.parametrize("n, q", [(8, 0), (0, 0), (0, 1), (-8, 4), (-8, -4), (8, -4), (4, 8)])
    def test_group_count_outside_one_to_n_rejected(self, n, q):
        with pytest.raises(ValueError, match="1 <= Q <= N"):
            AsymptoticInputs(N=n, Q=q)

    @pytest.mark.parametrize("n, q", [(1, 1), (8, 1), (8, 8)])
    def test_group_count_bounds_accepted(self, n, q):
        assert AsymptoticInputs(N=n, Q=q).mu == n // q

    @pytest.mark.parametrize("field, value", [
        ("kappa_bi", np.nan), ("kappa_iu", np.inf), ("delta_bi", np.nan), ("delta_iu", -1.0),
        ("N", 8.5), ("N", True), ("Q", "4")])
    def test_bad_value_named(self, field, value):
        # a nan or inf fading parameter once gave a NaN variance and gain, with no error
        with pytest.raises(ValueError, match=f"^{field} must"):
            AsymptoticInputs(**{"N": 8, "Q": 4, field: value})

    def test_whole_float_count_stored_as_int(self):
        inp = AsymptoticInputs(N=8.0, Q=4)
        assert type(inp.N) is int and inp.N == 8

    def test_fields_frozen_after_construction(self):
        # construction refuses Q = 3 (it does not divide N = 8), an assignment once took it
        inp = AsymptoticInputs(N=8, Q=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inp.Q = 3
        assert inp.Q == 4

    def test_derived_quantities(self):
        inp = AsymptoticInputs(N=16, Q=4, kappa_bi=10.0, kappa_iu=10.0)
        assert inp.mu == 4
        assert abs(inp.a_bar - 10.0 / 11.0) <= 1e-15
        assert abs(inp.a_tilde - 1.0 / 11.0) <= 1e-15


class TestUngroupedGain:
    def test_rayleigh_limit(self):
        inp = AsymptoticInputs(N=8, Q=8, kappa_bi=0.0, kappa_iu=0.0)
        assert abs(uirs_gain(8, inp) - 64 * np.pi ** 2 / 16.0) <= 1e-12

    def test_los_limit(self):
        inp = AsymptoticInputs(N=8, Q=8, kappa_bi=1e12, kappa_iu=1e12)
        assert abs(uirs_gain(8, inp) - 64.0) / 64.0 <= 1e-5

    def test_unit_rician_factor(self):
        # (pi^2/16) * (1/4) * L(1)^4, frozen from the 30-digit oracle
        inp = AsymptoticInputs(N=4, Q=4, kappa_bi=1.0, kappa_iu=1.0)
        assert abs(uirs_gain(4, inp) / 16.0 - 0.67512334858185988) <= 1e-13


class TestGroupedCascadeLaw:
    def test_rayleigh_cascade_has_zero_mean(self):
        inp = AsymptoticInputs(N=64, Q=4, kappa_bi=0.0, kappa_iu=2.0, delta_bi=0.5, delta_iu=2.0)
        mean, var = combined_cascade_distribution(inp)
        assert np.all(mean == 0)
        assert abs(var - 16 * 1.0) <= 1e-12   # mu * (delta_bi*delta_iu)^2 * (1 - 0)

    def test_strong_rician_mean(self):
        inp = AsymptoticInputs(N=4 * 2048, Q=4, kappa_bi=10.0, kappa_iu=10.0)
        mean, var = combined_cascade_distribution(inp)
        assert np.allclose(np.abs(mean), 1676.2252868088666, rtol=1e-12)
        expected_dir = np.exp(-1j * (2 * np.arange(1, 5) - 1) * np.pi / 4)
        assert np.allclose(mean, np.abs(mean) * expected_dir)
        assert abs(var - 2048 * (1 - (10.0 / 11.0) ** 2)) <= 1e-9

    def test_mean_vanishes_for_single_group(self):
        inp = AsymptoticInputs(N=64, Q=1, kappa_bi=5.0, kappa_iu=5.0)
        mean, _ = combined_cascade_distribution(inp)
        assert np.all(mean == 0)


class TestGroupedGain:
    def test_rayleigh_leg(self):
        inp = AsymptoticInputs(N=64, Q=4, kappa_bi=0.0, kappa_iu=7.0)
        assert abs(ieg_gain(inp) - 64 * 4 * np.pi / 4.0) <= 1e-10

    def test_large_group_limit(self):
        inp = AsymptoticInputs(N=4 * 10 ** 6, Q=4, kappa_bi=10.0, kappa_iu=10.0)
        limit = inp.N ** 2 * group_shrink_factor(4) ** 2 * inp.a_bar ** 2
        assert 0.99 <= ieg_gain(inp) / limit <= 1.01

    def test_single_group_branch(self):
        inp = AsymptoticInputs(N=512, Q=1, kappa_bi=3.0, kappa_iu=3.0)
        assert abs(ieg_gain(inp) - 512 * (1 - inp.a_bar ** 2)) <= 1e-10

    def test_many_groups_recover_ungrouped_scaling(self):
        inp = AsymptoticInputs(N=10 ** 4 * 10 ** 4, Q=10 ** 4, kappa_bi=10.0, kappa_iu=10.0)
        # shrink -> 1 and a_bar^2 mu -> infinity: gain -> N^2 a_bar^2
        assert 0.99 <= ieg_gain(inp) / (inp.N ** 2 * inp.a_bar ** 2) <= 1.01

    def test_pure_los_guard(self):
        inp = AsymptoticInputs(N=64, Q=4, kappa_bi=1e18, kappa_iu=1e18)
        expect = 64 ** 2 * group_shrink_factor(4) ** 2
        assert abs(ieg_gain(inp) - expect) / expect <= 1e-6


class TestPerformanceLoss:
    def test_no_los_loses_everything(self):
        assert performance_loss(0.0, 1.0, 10 ** 6) >= 0.99

    def test_decreasing_in_rician_factor(self):
        vals = [performance_loss(k, k, 1000) for k in np.linspace(1.0, 100.0, 25)]
        assert np.all(np.diff(vals) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            performance_loss(1.0, 1.0, 0)


class TestMonteCarloValidators:
    def test_zero_mean_case(self):
        inp = AsymptoticInputs(N=4 * 256, Q=4, kappa_bi=0.0, kappa_iu=0.0)
        report = validate_combined_cascade_monte_carlo(inp, trials=500, rng=np.random.default_rng(1))
        assert report.passed
        assert report.modulus_err < 0.1          # |mean| against the entry std
        assert abs(report.kurtosis_re - 3.0) <= 0.3
        assert abs(report.kurtosis_im - 3.0) <= 0.3

    def test_strong_rician_case(self):
        inp = AsymptoticInputs(N=4 * 2048, Q=4, kappa_bi=10.0, kappa_iu=10.0)
        report = validate_combined_cascade_monte_carlo(inp, trials=700, rng=np.random.default_rng(2))
        assert report.passed, str(report)
        assert report.modulus_err <= 0.05
        assert report.phase_err <= 0.05 * (2 * np.pi / 4)
        assert report.variance_err <= 0.10

    def test_simulators_are_deterministic(self):
        inp = AsymptoticInputs(N=64, Q=4, kappa_bi=1.0, kappa_iu=1.0)
        a = simulate_grouped_gain(inp, 10, np.random.default_rng(3))
        b = simulate_grouped_gain(inp, 10, np.random.default_rng(3))
        assert a == b
        c = simulate_ungrouped_gain(16, inp, 10, np.random.default_rng(4))
        d = simulate_ungrouped_gain(16, inp, 10, np.random.default_rng(4))
        assert c == d

    def test_grouped_cascade_shapes(self):
        inp = AsymptoticInputs(N=32, Q=4, kappa_bi=1.0, kappa_iu=1.0)
        samples = simulate_grouped_cascades(inp, 7, np.random.default_rng(5))
        assert samples.shape == (7, 4)


def _trials_per_block(n):
    return max(1, DRAW_BLOCK_BYTES // (4 * n * 8))


# one n whose block holds many trials, one whose block holds a single trial
BLOCK_NS = (256, DRAW_BLOCK_BYTES // 32)
# the links of the draw checks: kappa = 2 and 3, where the N = 1 in-place product was seen
DRAW_LINKS = dict(kappa_bi=2.0, kappa_iu=3.0)


def _draw_cases(n):
    """(trials, seed) pairs: 1 to 3 trials and the per-block edges from seed 0. At N = 1, blocks
    of one to three elements are where an in-place product differed from the serial loop's in
    the last bits, in a quarter to a half of all seeds, so those also run from seeds 1 to 19."""
    per = _trials_per_block(n)
    edges = sorted({t for t in (1, 2, 3, per - 1, per, per + 1, 3 * per + 2) if t >= 1})
    return [(t, 0) for t in edges] + [(t, s) for s in range(1, 20 if n == 1 else 1)
                                      for t in (1, 2, 3)]


@functools.cache
def _serial_run(n, seed):
    """The serial loop's cascades for the most trials a case of (n, seed) asks, and rng's
    state after each case's count: a serial run's first t trials are the draws for t trials."""
    rng = np.random.default_rng(seed)
    draws = oracles.serial_cascade_draws(n, AsymptoticInputs(N=n, Q=1, **DRAW_LINKS), rng)
    cascades, states = [], {}
    for t in sorted(t for t, s in _draw_cases(n) if s == seed):
        cascades += islice(draws, t - len(cascades))
        states[t] = rng.bit_generator.state
    return cascades, states


class TestBlockedDraws:
    @pytest.mark.parametrize("n", (1,) + BLOCK_NS)
    def test_blocks_match_serial_loop(self, n):
        link_bi, link_iu = asymptotics._ramp_links(n, AsymptoticInputs(N=n, Q=1, **DRAW_LINKS))
        for trials, seed in _draw_cases(n):
            cascades, states = _serial_run(n, seed)
            rng = np.random.default_rng(seed)
            blocks = list(cascade_draws(link_iu, link_bi, trials, rng))
            assert [len(c) for c in blocks[:-1]] == [_trials_per_block(n)] * (len(blocks) - 1)
            assert all(c.flags.c_contiguous for c in blocks)
            assert np.concatenate(blocks).tobytes() == np.stack(cascades[:trials]).tobytes()
            assert rng.bit_generator.state == states[trials]

    @pytest.mark.parametrize("n", (1,) + BLOCK_NS)
    def test_grouped_cascades_match_serial_loop(self, n):
        assert _trials_per_block(BLOCK_NS[-1]) == 1
        inp = AsymptoticInputs(N=n, Q=min(n, 4), **DRAW_LINKS)
        for seed in sorted({s for _, s in _draw_cases(n)}):
            cascades, states = _serial_run(n, seed)
            ref = oracles.grouped_rows(inp, cascades)           # row t depends on trial t alone
            for trials in states:
                rng = np.random.default_rng(seed)
                out = simulate_grouped_cascades(inp, trials, rng)
                assert out.tobytes() == ref[:trials].tobytes()
                assert rng.bit_generator.state == states[trials]

    @pytest.mark.parametrize("n", (1,) + BLOCK_NS)
    def test_ungrouped_gain_matches_serial_loop(self, n):
        inp = AsymptoticInputs(N=n, Q=n, **DRAW_LINKS)
        for seed in sorted({s for _, s in _draw_cases(n)}):
            cascades, states = _serial_run(n, seed)
            sums = oracles.ungrouped_sums(cascades)
            for trials in states:
                rng = np.random.default_rng(seed)
                assert simulate_ungrouped_gain(n, inp, trials, rng) == \
                    oracles.scalar_square_mean(sums[:trials])
                assert rng.bit_generator.state == states[trials]

    def test_concurrent_callers_keep_their_streams(self):
        # four threads at once, each with its own generator: draws share no state
        inp = AsymptoticInputs(N=256, Q=256, kappa_bi=1.0, kappa_iu=1.0)
        trials = 3 * _trials_per_block(256) + 2
        results = {}

        def run(seed):
            results[seed] = simulate_ungrouped_gain(256, inp, trials, np.random.default_rng(seed))

        callers = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30.0)
            assert not t.is_alive()
        for seed in range(4):
            assert results[seed] == oracles.ungrouped_gain(256, inp, trials,
                                                           np.random.default_rng(seed))

    def test_caller_exception_propagates(self, monkeypatch):
        calls = []

        def failing_combine(grouping, cascade):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("third block")
            return combine_cascade(grouping, cascade)

        monkeypatch.setattr(asymptotics, "combine_cascade", failing_combine)
        inp = AsymptoticInputs(N=256, Q=4)
        with pytest.raises(RuntimeError, match="third block"):
            simulate_grouped_cascades(inp, 10 * _trials_per_block(256), np.random.default_rng(0))
        assert len(calls) == 3

    def test_early_close_draws_no_further_block(self):
        # a caller that stops after block 2 draws on the calling thread, with no
        # other thread started, and leaves rng exactly two blocks in
        per = _trials_per_block(256)
        link_bi, link_iu = asymptotics._ramp_links(256, AsymptoticInputs(N=256, Q=4))
        rng = np.random.default_rng(0)
        before = threading.active_count()
        draws = cascade_draws(link_iu, link_bi, 10 * per, rng)
        seen = []
        for c in draws:
            seen.append(threading.active_count())
            if len(seen) == 2:
                break
        draws.close()
        assert seen == [before, before] and threading.active_count() == before
        ref_rng = np.random.default_rng(0)
        ref_rng.standard_normal(2 * per * 4 * 256)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_law_report_matches_serial_loop_statistics(self, monkeypatch):
        # the same statistics over the serial loop's C-ordered samples: a
        # reordered layout of equal samples moves the last bits of the means
        inp = AsymptoticInputs(N=256, Q=4, kappa_bi=2.0, kappa_iu=5.0)
        trials = 3 * _trials_per_block(256) + 2
        report = validate_combined_cascade_monte_carlo(inp, trials, np.random.default_rng(21))
        monkeypatch.setattr(asymptotics, "simulate_grouped_cascades", oracles.grouped_cascades)
        ref = validate_combined_cascade_monte_carlo(inp, trials, np.random.default_rng(21))
        for field in dataclasses.fields(report):
            got, want = getattr(report, field.name), getattr(ref, field.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name

    def test_ungrouped_gain_squares_like_the_scalar_loop(self):
        # the serial loop squares each sum as a scalar, s ** 2; one of these
        # sums has a scalar square that differs in the last bit from the array
        # square, and over five trials that difference reaches the mean
        inp = AsymptoticInputs(N=16, Q=16, kappa_bi=0.5, kappa_iu=2.0)
        draws = oracles.serial_cascade_draws(16, inp, np.random.default_rng(468))
        sums = np.array(oracles.ungrouped_sums(islice(draws, 5)))
        assert any(s ** 2 != s2 for s, s2 in zip(sums, sums ** 2))
        ref = oracles.ungrouped_gain(16, inp, 5, np.random.default_rng(468))
        assert float(np.mean(sums ** 2)) != ref
        assert simulate_ungrouped_gain(16, inp, 5, np.random.default_rng(468)) == ref

    def test_draw_exception_reraised(self):
        class BrokenGenerator:
            def standard_normal(self, out):
                raise FloatingPointError("draw failed")

        with pytest.raises(FloatingPointError, match="draw failed"):
            simulate_ungrouped_gain(16, AsymptoticInputs(N=16, Q=16), 3, BrokenGenerator())

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_rejected(self, trials):
        inp = AsymptoticInputs(N=16, Q=4)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="trials"):
            simulate_grouped_cascades(inp, trials, rng)
        with pytest.raises(ValueError, match="trials"):
            simulate_ungrouped_gain(16, inp, trials, rng)
        with pytest.raises(ValueError, match="trials"):
            validate_combined_cascade_monte_carlo(inp, trials, rng)


@pytest.mark.parametrize("command", [["asymptotics"], ["simulate"],
                                     ["sweep", "--axis", "groups", "--values", "2"]])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_cli_rejects_trials_below_one(command, trials, capsys):
    from iegirs.cli import main
    with pytest.raises(SystemExit) as exc:
        main(command + ["--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def _run_python(*args, check=True):
    """Run python with args in a fresh interpreter that imports this checkout's iegirs."""
    env = dict(os.environ, PYTHONPATH=str(Path(iegirs.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=check, env=env)


def _run_fresh(code, check=True):
    """Run code in a fresh interpreter that imports this checkout's iegirs."""
    return _run_python("-c", code, check=check)


@functools.cache
def _cli_import_set():
    """The modules a fresh interpreter holds after `import iegirs.cli`, one run for all tests."""
    return set(_run_fresh("import sys, iegirs.cli; print(*sys.modules)").stdout.split())


class TestCliImportSet:
    def test_cli_import_leaves_out_yaml(self):
        # ScenarioConfig.from_yaml imports it on the first YAML read (about 20 ms)
        assert "yaml" not in _cli_import_set()

    def test_cli_import_leaves_out_acceptance(self):
        # only validate imports the suite (about 10 ms compiling from source)
        assert "iegirs.acceptance" not in _cli_import_set()

    def test_cli_import_loads_asymptotics(self):
        # perfbench's tracer (perfbench/spans.py, Tracer.install) reads
        # sys.modules["iegirs.asymptotics"] right after `import iegirs.cli`
        assert "iegirs.asymptotics" in _cli_import_set()

    def test_validate_from_cold_import(self):
        # the suite loads on demand inside a fresh interpreter, as for the `iegirs` script
        code = "import sys; from iegirs.cli import main; sys.exit(main(['validate', '--only', 'c05']))"
        out = _run_fresh(code, check=False)
        assert out.returncode == 0, out.stderr
        assert "1/1 acceptance criteria passed" in out.stdout

    def test_python_dash_m_runs_the_cli(self):
        out = _run_python("-m", "iegirs", "validate", "--only", "c01", check=False)
        assert out.returncode == 0, out.stderr
        assert "1/1 acceptance criteria passed" in out.stdout
        # and exits with the CLI's code: argparse refuses --trials 0 with 2
        assert _run_python("-m", "iegirs", "asymptotics", "--trials", "0", check=False).returncode == 2


class TestKurtosis:
    def test_matches_scipy_pearson_biased(self):
        rng = np.random.default_rng(9)
        for x in (rng.standard_normal(20000), rng.standard_t(5, 3000), rng.uniform(size=7)):
            expected = stats.kurtosis(x, fisher=False)
            assert abs(_kurtosis(x) - expected) <= 1e-12 * expected

    def test_cli_import_leaves_out_scipy_stats(self):
        assert "scipy.stats" not in _cli_import_set()

    def test_cli_import_leaves_out_scipy_special(self):
        assert "scipy.special" not in _cli_import_set()

    def test_asymptotics_run_leaves_out_scipy_special(self, tmp_path):
        # laguerre_half evaluates its Bessel factors itself; scipy.special costs about 19 MB
        code = ("import sys; from iegirs import cli; "
                f"cli.main(['asymptotics', '--trials', '5', '--out', {str(tmp_path / 'a.csv')!r}]); "
                "print('scipy.special' in sys.modules)")
        assert _run_fresh(code).stdout.splitlines()[-1] == "False"

    def test_cli_import_leaves_out_concurrent_futures(self):
        # nothing in the package uses it; importing it costs about 10 ms, mostly logging
        assert "concurrent.futures" not in _cli_import_set()
