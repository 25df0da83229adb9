import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import iegirs
from iegirs.asymptotics import (AsymptoticInputs, ieg_gain, combined_cascade_distribution,
                                performance_loss, simulate_grouped_cascades,
                                simulate_grouped_gain, simulate_ungrouped_gain, uirs_gain,
                                validate_combined_cascade_monte_carlo, _kurtosis)
from iegirs.mathkit import group_shrink_factor


class TestInputs:
    def test_group_size_must_divide(self):
        with pytest.raises(ValueError):
            AsymptoticInputs(N=10, Q=4)

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

    def test_group_gap_constants(self):
        assert round(1 - group_shrink_factor(2) ** 2, 3) == 0.595
        assert round(1 - group_shrink_factor(4) ** 2, 3) == 0.189

    def test_pure_los_guard(self):
        inp = AsymptoticInputs(N=64, Q=4, kappa_bi=1e18, kappa_iu=1e18)
        expect = 64 ** 2 * group_shrink_factor(4) ** 2
        assert abs(ieg_gain(inp) - expect) / expect <= 1e-6


class TestPerformanceLoss:
    def test_no_los_loses_everything(self):
        assert performance_loss(0.0, 1.0, 10 ** 6) >= 0.99

    def test_strong_los_loses_little(self):
        assert performance_loss(100.0, 100.0, 10 ** 4) < 0.05

    def test_decreasing_in_rician_factor(self):
        vals = [performance_loss(k, k, 1000) for k in np.linspace(1.0, 100.0, 25)]
        assert np.all(np.diff(vals) < 0)

    def test_matches_gain_ratio(self):
        q = 10 ** 4
        for kappa in (1.0, 10.0):
            for mu in (100, 10 ** 4):
                inp = AsymptoticInputs(N=q * mu, Q=q, kappa_bi=kappa, kappa_iu=kappa)
                ratio = ieg_gain(inp) / uirs_gain(q * mu, inp)
                assert abs(performance_loss(kappa, kappa, mu) - (1 - ratio)) <= 1e-3

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


def _loaded_after_cli_import(module):
    """Whether a fresh interpreter holds module after `import iegirs.cli`."""
    code = f"import sys, iegirs.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(iegirs.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip() == "True"


class TestKurtosis:
    def test_matches_scipy_pearson_biased(self):
        rng = np.random.default_rng(9)
        for x in (rng.standard_normal(20000), rng.standard_t(5, 3000), rng.uniform(size=7)):
            expected = stats.kurtosis(x, fisher=False)
            assert abs(_kurtosis(x) - expected) <= 1e-12 * expected

    def test_cli_import_leaves_out_scipy_stats(self):
        assert not _loaded_after_cli_import("scipy.stats")

    def test_cli_import_leaves_out_scipy_special(self):
        assert not _loaded_after_cli_import("scipy.special")
