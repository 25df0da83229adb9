import math

import numpy as np
import pytest
from scipy import special

from iegirs import acceptance, cli, mathkit
from iegirs.mathkit import (_i0e_i1e, array_response, group_shrink_factor, laguerre_half,
                            virtual_los_direction)
import oracles


class TestLaguerreHalf:
    def test_zero_is_exactly_one(self):
        assert laguerre_half(0.0) == 1.0

    @pytest.mark.parametrize("x,frozen", [
        (0.1, 1.0493852561567293),   # mpmath, 30 digits
        (1.0, 1.4464913440831718),
        (10.0, 3.6586716081480355),
    ])
    def test_small_arguments(self, x, frozen):
        series = acceptance.laguerre_oracle(x)     # the power series below x = 30
        assert abs(series - frozen) <= 1e-14 * frozen
        assert abs(laguerre_half(x) - series) <= 1e-10 * series

    def test_large_argument(self):
        # frozen high-precision value and the |x|^(1/2)/Gamma(3/2) asymptote
        val = laguerre_half(1e4)
        assert abs(val - 112.84073769273349) <= 1e-8 * 112.84
        asymptote = 2.0 * math.sqrt(1e4 / math.pi)
        assert abs(val - asymptote) / asymptote <= 1e-4

    def test_stable_at_huge_arguments(self):
        val = laguerre_half(1e8)
        assert np.isfinite(val)
        asymptote = 2.0 * math.sqrt(1e8 / math.pi)
        assert abs(val - asymptote) / asymptote <= 1e-6

    def test_monotone_on_grid(self):
        grid = np.concatenate([np.linspace(0.0, 50.0, 500), np.geomspace(50.0, 1e6, 500)])
        vals = laguerre_half(grid)
        assert np.all(np.diff(vals) >= 0)

    def test_asymptote_band_above_200(self):
        grid = np.geomspace(200.0, 1e8, 300)
        ratio = laguerre_half(grid) / (2.0 * np.sqrt(grid / np.pi))
        assert np.all(ratio >= 0.99) and np.all(ratio <= 1.01)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, np.nan, np.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            laguerre_half(bad)

    @pytest.mark.parametrize("kappa,sigma", [(0.5, 1.0), (2.0, 0.7)])
    def test_rician_envelope_mean(self, kappa, sigma):
        # h = m + g with g ~ CN(0, sigma^2), |m|^2 = kappa sigma^2:
        # E|h| = (sqrt(pi)/2) sigma L(kappa)
        rng = np.random.default_rng(17)
        n = 10 ** 5
        g = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        h = sigma * np.sqrt(kappa) + g
        expected = (np.sqrt(np.pi) / 2.0) * sigma * laguerre_half(kappa)
        assert abs(np.mean(np.abs(h)) - expected) / expected <= 0.01


def assert_scipy_bits(h):
    """_i0e_i1e(h) equals scipy.special.i0e(h) and i1e(h) bit for bit."""
    h = np.asarray(h, dtype=float)
    i0e, i1e = _i0e_i1e(h)
    off = h[(i0e != special.i0e(h)) | (i1e != special.i1e(h))]
    assert off.size == 0, f"{off.size} arguments differ from scipy, first {off[:5]}"


class TestCephesKernel:
    def test_dense_grid_on_both_branches(self):
        assert_scipy_bits(np.linspace(0.0, 8.0, 200001))
        assert_scipy_bits(np.linspace(8.0, 1e3, 200001))
        assert_scipy_bits(np.geomspace(1e-6, 1e9, 200001))

    @pytest.mark.parametrize("h", [8.0, np.nextafter(8.0, np.inf), np.nextafter(8.0, -np.inf),
                                   0.0, 5e-324, 1e8, 1e300])
    def test_edges(self, h):
        assert_scipy_bits(np.array([h]))
        assert_scipy_bits(np.asarray(h))

    def test_arguments_the_program_passes(self, monkeypatch, tmp_path):
        # every half-argument of the asymptotics table (ieg_gain, performance_loss,
        # uirs_gain) and of criterion c01 reaches the kernel through laguerre_half
        seen = []

        def recorder(h):
            seen.append(h.copy())
            return _i0e_i1e(h)

        monkeypatch.setattr(mathkit, "_i0e_i1e", recorder)
        assert cli.main(["asymptotics", "--trials", "5", "--out", str(tmp_path / "a.csv")]) == 0
        table_calls = len(seen)
        assert acceptance.c01_special_function_oracle()[0]
        assert table_calls >= 17 and len(seen) > table_calls
        assert_scipy_bits(np.concatenate([np.ravel(h) for h in seen]))

    def test_laguerre_half_keeps_the_scipy_bits(self):
        grid = np.concatenate([np.linspace(0.0, 50.0, 5001), np.geomspace(1e-9, 1e12, 5001),
                               [0.0, 16.0, np.nextafter(16.0, 0.0), np.nextafter(16.0, 32.0)]])
        assert np.array_equal(laguerre_half(grid), oracles.laguerre_half(grid))
        assert np.array_equal(laguerre_half(grid.reshape(2, -1)),
                              oracles.laguerre_half(grid.reshape(2, -1)))
        for x in grid[::97]:
            for arg in (float(x), np.asarray(x)):
                val = laguerre_half(arg)
                assert type(val) is float and val == float(oracles.laguerre_half(np.asarray(x)))


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        for n in (1, 3, 16):
            assert np.allclose(array_response(n, 0.0), np.ones(n))

    def test_two_element_endfire(self):
        resp = array_response(2, np.pi / 2)
        assert np.allclose(resp, [1.0, -1.0], atol=1e-12)

    def test_norm_and_modulus(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 64))
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            resp = array_response(n, theta)
            assert abs(np.linalg.norm(resp) - np.sqrt(n)) <= 1e-12 * np.sqrt(n)
            assert np.allclose(np.abs(resp), 1.0)
            assert resp[0] == 1.0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            array_response(0, 0.3)


class TestGroupShrinkFactor:
    def test_known_values(self):
        assert abs(group_shrink_factor(2) - 2.0 / np.pi) <= 1e-15
        assert abs(group_shrink_factor(4) - 2.0 * np.sqrt(2.0) / np.pi) <= 1e-15

    def test_limit(self):
        assert abs(group_shrink_factor(10 ** 6) - 1.0) <= 1e-11

    def test_single_group_degenerates_to_zero(self):
        assert group_shrink_factor(1) == 0.0

    def test_increasing(self):
        vals = [group_shrink_factor(q) for q in range(1, 200)]
        assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            group_shrink_factor(0)


class TestVirtualLosDirection:
    def test_single_group(self):
        v = virtual_los_direction(1)
        assert v.shape == (1,)
        assert abs(abs(v[0]) - 1.0) <= 1e-15

    def test_two_groups(self):
        v = virtual_los_direction(2)
        # phases -(2g-1)pi/2 for g = 1, 2, i.e. -pi/2 and -3pi/2 (= +pi/2)
        assert np.allclose(np.angle(v), [-np.pi / 2, np.pi / 2])

    def test_alignment_gives_real_positive_sum(self):
        for q in (2, 4, 7):
            direction = virtual_los_direction(q)
            mean = 3.7 * direction            # any positive scale
            rcv = np.exp(1j * np.angle(direction))
            total = np.vdot(rcv, mean)        # rcv^H mean
            assert abs(total.imag) <= 1e-12 * abs(total)
            assert abs(total.real - 3.7 * q) <= 1e-12 * 3.7 * q

    def test_domain_error(self):
        with pytest.raises(ValueError):
            virtual_los_direction(0)
