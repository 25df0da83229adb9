import dataclasses
import types

import numpy as np
import pytest

from iegirs import beamforming as bf
from iegirs import grouping as grp
from iegirs.beamforming import (FPAuxiliaries, PrecodingMatrix, SolverOptions,
                                build_rcv_quadratic, effective_channels,
                                fp_objective, matched_precoder, mm_step, mm_surrogate,
                                precoder_quadratic, rcv_objective, rx_stats, sinr_all, solve_fp,
                                two_stage_solve, update_auxiliaries, update_precoder,
                                update_rcv_mm, wsr)
from iegirs.channel import ChannelSet, build_scenario
from iegirs.config import MAX_WEIGHT, SCHEME_DIMS, ScenarioConfig
from iegirs.grouping import GroupingMatrix, adjacent_grouping, combine_cascade
from iegirs.harness import run_scheme, trial_draw
import oracles


# weights of a K = 4 problem that are not (K,), finite, nonnegative and at most MAX_WEIGHT;
# before the bound, 1e200 ended in a NaN precoder power and 1e308 in an OverflowError
BAD_WEIGHTS = pytest.mark.parametrize(
    "weights", [[2.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0],
                [np.inf, 1.0, 1.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.0, 1.0, 1.0, 1e200],
                [1.0, 1.0, 1.0, 1e308]],
    ids=["one", "three", "negative", "nan", "inf", "2d", "1e200", "1e308"])


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestEffectiveChannel:
    def test_zero_cascade_gives_direct(self):
        h_bu = np.array([[1.0 + 2.0j, -0.5j]])
        h = effective_channels(np.ones(3), np.zeros((1, 3, 2)), h_bu)
        assert np.array_equal(h, h_bu)

    def test_no_direct_single_group(self):
        c_hat = np.array([[[2.0 + 1.0j, 0.5j]]])
        theta = 0.7
        h = effective_channels(np.exp(1j * np.array([theta])), c_hat, np.zeros((1, 2)))
        # h^H = e^{-j theta} * row, so h = conj of that
        assert np.allclose(h[0], np.conj(np.exp(-1j * theta) * c_hat[0, 0]))

    def test_empty_cascade_degenerates(self):
        h_bu = np.array([[0.3 + 0.1j], [-0.0 - 2.0j]])
        h = effective_channels(np.zeros(0), np.zeros((2, 0, 1)), h_bu)
        assert np.array_equal(h, h_bu)
        assert np.array_equal(np.signbit(h.real), np.signbit(h_bu.real))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_channels(np.ones(2), np.ones((1, 3, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            effective_channels(np.ones(3), np.ones((1, 3, 2)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            effective_channels(np.ones(3), np.ones((2, 3, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize("k,q,m", [(1, 1, 1), (2, 4, 2), (4, 4, 4), (3, 256, 2), (2, 1024, 4)])
    def test_bitwise_equal_to_per_user_formula(self, k, q, m):
        rng = np.random.default_rng(q + 10 * m + 100 * k)
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
        c_hat = random_complex(rng, (k, q, m), 1e-3)
        h_bu = random_complex(rng, (k, m), 1e-4)
        per_user = np.stack([c_hat[j].conj().T @ v + h_bu[j] for j in range(k)])
        assert np.array_equal(effective_channels(v, c_hat, h_bu), per_user)


class TestSinrAndWsr:
    def test_zero_beam_gives_zero(self):
        h = np.ones((2, 3), dtype=complex)
        w = np.zeros((3, 2), dtype=complex)
        assert np.array_equal(sinr_all(h, w, 1.0), [0.0, 0.0])

    def test_unit_snr(self):
        h = np.array([[1.0 + 0.0j]])
        w = np.array([[1.0 + 0.0j]])
        assert abs(sinr_all(h, w, 1.0)[0] - 1.0) <= 1e-15

    def test_matches_direct_formula(self):
        # one user at a time: |h_k^H w_k|^2 / (sum_{j != k} |h_k^H w_j|^2 + noise)
        rng = np.random.default_rng(1)
        h = random_complex(rng, (3, 4))
        w = random_complex(rng, (4, 3))
        noise = 0.37
        gammas = sinr_all(h, w, noise)
        for k in range(3):
            sig = abs(np.conj(h[k]) @ w[:, k]) ** 2
            intf = sum(abs(np.conj(h[k]) @ w[:, j]) ** 2 for j in range(3) if j != k)
            assert abs(gammas[k] - sig / (intf + noise)) <= 1e-12

    def test_wsr_values(self):
        assert wsr([0.0, 0.0], [1.0, 1.0]) == 0.0
        assert wsr([1.0], [1.0]) == 1.0
        assert abs(wsr([3.0, 1.0], [1.0, 2.0]) - 4.0) <= 1e-15
        with pytest.raises(ValueError):
            wsr([-0.1], [1.0])

    def test_wsr_refuses_nan(self):
        with pytest.raises(ValueError, match="^SINRs must be nonnegative numbers$"):
            wsr([np.nan, 1.0], [1.0, 1.0])


class TestUpdateAuxiliaries:
    def test_hand_example_unit_everything(self):
        h = np.array([[1.0 + 0.0j]])
        w = np.array([[1.0 + 0.0j]])
        aux = update_auxiliaries(*rx_stats(h, w, 1.0), np.ones(1))
        # chi = 2, A = 1/sqrt(2), varsigma = SINR = 1
        assert abs(aux.xi[0] - 1.0 / np.sqrt(2.0)) <= 1e-15
        assert abs(aux.varsigma[0] - 1.0) <= 1e-15

    def test_hand_example_snr_three(self):
        h = np.array([[np.sqrt(3.0) + 0.0j]])
        w = np.array([[1.0 + 0.0j]])
        aux = update_auxiliaries(*rx_stats(h, w, 1.0), np.ones(1))
        # B = 3/2, varsigma = 3
        assert abs(aux.varsigma[0] - 3.0) <= 1e-12

    def test_varsigma_equals_sinr(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            h = random_complex(rng, (k, m), scale=rng.uniform(0.1, 10))
            w = random_complex(rng, (m, k))
            noise = float(rng.uniform(1e-4, 10))
            aux = update_auxiliaries(*rx_stats(h, w, noise), np.ones(k))
            gam = sinr_all(h, w, noise)
            assert np.max(np.abs(aux.varsigma - gam) / np.maximum(gam, 1e-30)) <= 1e-10

    def test_aux_step_never_decreases_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k, m, q = 3, 2, 4
            c_hat = random_complex(rng, (k, q, m))
            h_bu = random_complex(rng, (k, m), 0.3)
            w = random_complex(rng, (m, k))
            weights = rng.uniform(0.5, 2.0, size=k)
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
            h = effective_channels(v, c_hat, h_bu)
            aux0 = FPAuxiliaries(varsigma=rng.uniform(0, 3, size=k), xi=random_complex(rng, k),
                                 weights=weights)
            f0 = oracles.fp_at(v, w, aux0, c_hat, h_bu, 1.0)
            aux1 = update_auxiliaries(*rx_stats(h, w, 1.0), weights)
            f1 = oracles.fp_at(v, w, aux1, c_hat, h_bu, 1.0)
            assert f1 >= f0 - 1e-10 * max(1.0, abs(f0))

    @pytest.mark.parametrize("bad", [-1e-300, -np.inf, np.inf, np.nan])
    def test_bad_varsigma_refused(self, bad):
        for good in (0.0, -0.0):
            FPAuxiliaries(varsigma=np.array([1.0, good]), xi=np.ones(2, dtype=complex),
                          weights=np.ones(2))
        with pytest.raises(ValueError, match="^varsigma must be finite and nonnegative$"):
            FPAuxiliaries(varsigma=np.array([1.0, bad]), xi=np.ones(2, dtype=complex),
                          weights=np.ones(2))

    @pytest.mark.parametrize("inr", [0.0, -1.0, np.inf, np.nan])
    def test_ill_posed_statistics_refused(self, inr):
        # a received-statistics pair whose scale sqrt(chi inr) is not a
        # positive finite number: zero, NaN (negative inr) or infinite
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^ill-posed"):
            update_auxiliaries(np.array([1.0 + 0j, 1.0 + 0j]), np.array([1.0, inr]), np.ones(2))

    @BAD_WEIGHTS
    def test_bad_weights_named(self, weights):
        with pytest.raises(ValueError, match="weights"):
            FPAuxiliaries(varsigma=np.ones(4), xi=np.ones(4, dtype=complex), weights=weights)
        h = random_complex(np.random.default_rng(27), (4, 2))
        w0 = matched_precoder(h, 1.0)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="weights"):
            update_auxiliaries(*rx_stats(h, w0, 1.0), weights)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="weights"):
            solve_fp(np.zeros((4, 0, 2), dtype=complex), h, 1.0, 1.0, weights,
                     np.zeros(0), SolverOptions(), w0)


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("max_outer", 0), ("max_outer", -3), ("max_outer", 2.5), ("max_outer", np.inf),
        ("max_outer", True), ("max_outer", "10"), ("max_outer", None),
        ("tol", np.nan), ("tol", np.inf), ("tol", -1e-6), ("tol", "1e-6"), ("tol", False)])
    def test_bad_value_named(self, field, value):
        # refused when built: max_outer = 0 once died in stage 1 on a missing
        # solve, 2.5 in range(), and tol = nan ran every solve to the cap
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolverOptions(**{field: value})

    def test_bound_message(self):
        with pytest.raises(ValueError, match=r"^max_outer must be >= 1, got 0$"):
            SolverOptions(max_outer=0)

    def test_edge_values_run(self):
        assert type(SolverOptions(max_outer=3.0).max_outer) is int
        opts = SolverOptions(tol=0.0, max_outer=np.int64(1))
        ch = build_scenario(ScenarioConfig(N=16, Q=4, seed=1), np.random.default_rng(1))
        res = two_stage_solve(ch, 4, 1e-2, np.ones(4), opts=opts)
        assert res.iterations == 1 and not res.converged and res.aux is not None
        with pytest.raises(AttributeError):
            opts.max_outer = 0                          # frozen: the checks cannot go stale


class TestUpdatePrecoder:
    def test_zero_targets_give_zero_beams(self):
        aux = FPAuxiliaries(varsigma=np.zeros(2), xi=np.zeros(2, dtype=complex), weights=np.ones(2))
        h = np.ones((2, 3), dtype=complex)
        pm = update_precoder(aux, h, 1.0)
        assert np.all(pm.w == 0)
        assert pm.lagrange == 0.0

    def test_scalar_interior_solution(self):
        # single user, single antenna, loose budget: w = zeta / L
        h = np.array([[2.0 + 0.0j]])
        aux = FPAuxiliaries(varsigma=np.array([1.0]), xi=np.array([0.25 + 0.0j]), weights=np.ones(1))
        pm = update_precoder(aux, h, p_max=100.0)
        l0, z = precoder_quadratic(aux, h)
        assert abs(pm.w[0, 0] - z[0, 0] / l0[0, 0]) <= 1e-12
        assert pm.lagrange == 0.0

    def test_power_binding(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h = random_complex(rng, (k, m), 5.0)
            w_prev = random_complex(rng, (m, k))
            aux = update_auxiliaries(*rx_stats(h, w_prev, 1e-3), np.ones(k))
            pm = update_precoder(aux, h, p_max=1e-4)
            assert pm.power <= 1e-4 + 1e-9
            if pm.lagrange > 0:
                assert abs(pm.power - 1e-4) <= 1e-6 * 1e-4

    def test_improves_previous_beams(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k, m = 3, 3
            h = random_complex(rng, (k, m))
            w_prev = matched_precoder(h, 0.5)
            aux = update_auxiliaries(*rx_stats(h, w_prev, 0.1), np.ones(k))
            l0, z = precoder_quadratic(aux, h)
            pm = update_precoder(aux, h, p_max=0.5)
            assert (oracles.precoder_objective(pm.w, l0, z)
                    >= oracles.precoder_objective(w_prev, l0, z) - 1e-10)

    def test_power_invariant_enforced(self):
        with pytest.raises(ValueError):
            PrecodingMatrix(w=np.ones((2, 2)), p_max=1.0)

    @pytest.mark.parametrize("p_max", [1e-4, 1.0, 1e7])
    def test_power_invariant_slack_is_relative(self, p_max):
        # an absolute 1e-9 W slack refused a binding precoder that met a
        # 10 MW budget to rounding; 1e-6 over the budget is refused at any scale
        w = np.full((2, 2), np.sqrt(p_max / 4))
        assert PrecodingMatrix(w=w * np.sqrt(1 + 1e-12), p_max=p_max).power > p_max
        with pytest.raises(ValueError, match="exceeds budget"):
            PrecodingMatrix(w=w * np.sqrt(1 + 1e-6), p_max=p_max)

    def test_missed_budget_raises(self):
        # tol = 0 demands the budget to the last bit: the budget is a float that power_at, on
        # the kernels at hand, steps over between two adjacent multipliers, so none meets it
        rng = np.random.default_rng(4)
        h = random_complex(rng, (2, 2), 5.0)
        aux = update_auxiliaries(*rx_stats(h, random_complex(rng, (2, 2)), 1e-3), np.ones(2))
        lam, _, power_at = oracles.bisection_multiplier(aux, h, 1e-4)
        while np.nextafter(power_at(lam), np.inf) >= power_at(np.nextafter(lam, 0.0)):
            lam = np.nextafter(lam, np.inf)
        p_max = np.nextafter(power_at(lam), np.inf)
        assert update_precoder(aux, h, p_max).lagrange == lam
        with pytest.raises(RuntimeError, match="misses the budget"):
            update_precoder(aux, h, p_max, tol=0.0)


def _unconstrained_power(aux, h):
    l0, z = precoder_quadratic(aux, h)
    return float(np.sum(np.abs(np.linalg.solve(l0, z)) ** 2))


def _bit_exact_cases():
    rng = np.random.default_rng(20)
    cases = []
    for k, m in [(1, 1), (1, 3), (2, 4), (3, 5), (2, 2), (4, 4), (4, 2), (5, 1)]:
        for _ in range(12):
            h = random_complex(rng, (k, m), 10 ** rng.uniform(-6, 2))
            p_max = 10 ** rng.uniform(-4, 1)
            w_prev = random_complex(rng, (m, k), np.sqrt(p_max / k))
            a = update_auxiliaries(*rx_stats(h, w_prev, 10 ** rng.uniform(-14, 0)), np.ones(k))
            aux = FPAuxiliaries(varsigma=a.varsigma, xi=a.xi, weights=rng.uniform(0.5, 2.0, size=k))
            cases.append((aux, h, p_max))
    # budgets just below the unconstrained power, where the multiplier is tiny
    for k, m in [(1, 1), (2, 2), (3, 3)]:
        for rel in (1e-3, 1e-6, 1e-9):
            h = random_complex(rng, (k, m))
            aux = update_auxiliaries(*rx_stats(h, random_complex(rng, (m, k)), 0.1), np.ones(k))
            cases.append((aux, h, _unconstrained_power(aux, h) * (1.0 - rel)))
    return cases


BIT_EXACT_CASES = _bit_exact_cases()


class TestPrecoderBitExact:
    """The Newton-started search lands on the float the plain bisection finds."""

    @pytest.mark.parametrize("aux,h,p_max", BIT_EXACT_CASES,
                             ids=[f"case{i}" for i in range(len(BIT_EXACT_CASES))])
    def test_matches_reference_bisection(self, aux, h, p_max):
        pm = update_precoder(aux, h, p_max)
        if pm.lagrange == 0.0:
            # unconstrained fit: rank-deficient L0 (K < M) has unbounded
            # free power only along directions z never touches
            assert pm.power <= p_max
            return
        lam, w, power_at = oracles.bisection_multiplier(aux, h, p_max)
        assert pm.lagrange == lam
        assert np.array_equal(pm.w, w)
        assert power_at(lam) <= p_max < power_at(np.nextafter(lam, 0.0))

    def test_cases_cover_the_regimes(self):
        bound = [update_precoder(*c).lagrange > 0 for c in BIT_EXACT_CASES]
        shapes = [(c[1].shape, b) for c, b in zip(BIT_EXACT_CASES, bound)]
        assert ((1, 1), True) in shapes
        assert any(s[0] < s[1] and b for s, b in shapes)     # rank-deficient L0
        assert sum(bound) >= 0.8 * len(BIT_EXACT_CASES)

    @pytest.mark.parametrize("estimate", [lambda e: 0.0, lambda e: np.inf, lambda e: np.nan,
                                          lambda e: 1e300, lambda e: 1.3 * e, lambda e: 0.5 * e,
                                          lambda e: 1e-6 * e],
                             ids=["zero", "inf", "nan", "1e300", "x1.3", "x0.5", "x1e-6"])
    def test_bad_newton_estimate_lands_on_reference(self, estimate, monkeypatch):
        # 0, inf and nan start the walk from max(1, top eigenvalue); 1e300
        # walks down without crossing the root, so lo stays 0; x1.3 crosses it
        # on the way down; x0.5 and x1e-6 walk up, past a step of 1 for
        # x1e-6, until a probe lands at or under the budget
        newton = bf._newton_multiplier
        monkeypatch.setattr(bf, "_newton_multiplier", lambda *a: estimate(newton(*a)))
        bound = 0
        for aux, h, p_max in BIT_EXACT_CASES[::7]:
            with np.errstate(over="ignore"):            # power_at(1e300) squares to inf
                pm = update_precoder(aux, h, p_max)
            if pm.lagrange == 0.0:
                continue
            bound += 1
            lam, w, _ = oracles.bisection_multiplier(aux, h, p_max)
            assert pm.lagrange == lam and np.array_equal(pm.w, w)
        assert bound >= 10


def _random_rcv_instance(rng, k=3, m=2, q=4, direct_scale=0.3):
    c_hat = random_complex(rng, (k, q, m))
    h_bu = random_complex(rng, (k, m), direct_scale)
    w = random_complex(rng, (m, k))
    h = effective_channels(np.ones(q), c_hat, h_bu)
    aux = update_auxiliaries(*rx_stats(h, w, 1.0), np.ones(k))
    return c_hat, h_bu, w, aux


class TestReflectionUpdate:
    def test_top_eigenvalue_bounds_spectrum_above_512(self):
        # a top gap of 1e-3 at Q = 600: the majorizer needs lam >= lambda_max
        rng = np.random.default_rng(17)
        q = 600
        basis, _ = np.linalg.qr(random_complex(rng, (q, q)))
        evals = np.concatenate([rng.uniform(0.0, 0.99, q - 2), [1.0 - 1e-3, 1.0]])
        u = (basis * evals) @ basis.conj().T
        u = (u + u.conj().T) / 2.0
        assert bf.top_eigenvalue(u) >= np.linalg.eigvalsh(u)[-1]

    def test_equal_eigenvalue_one_step(self):
        # U = lam I: the first step is the exact unconstrained-phase maximizer
        rng = np.random.default_rng(6)
        q = 4
        lam = 2.5
        u = lam * np.eye(q, dtype=complex)
        phi = random_complex(rng, q)
        v0 = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
        v1 = mm_step(v0, u @ v0, phi, lam)
        assert np.allclose(v1, np.exp(1j * np.angle(-phi)))
        # brute force confirms it is the global maximizer
        best = -np.inf
        for _ in range(2000):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
            best = max(best, rcv_objective(v, u @ v, phi))
        assert rcv_objective(v1, u @ v1, phi) >= best - 1e-9

    def test_single_group_reaches_grid_optimum_quickly(self):
        rng = np.random.default_rng(7)
        c_hat, h_bu, w, aux = _random_rcv_instance(rng, q=1)
        u, phi = build_rcv_quadratic(w, aux, c_hat, h_bu)
        out = np.exp(1j * update_rcv_mm(np.exp(1j * np.array([1.0])), w, aux, c_hat, h_bu,
                                        max_inner=2, tol=1e-10))
        grid = np.exp(1j * np.linspace(0, 2 * np.pi, 10 ** 4, endpoint=False))
        vals = [rcv_objective(v, u @ v, phi) for v in grid[:, None]]
        got = rcv_objective(out, u @ out, phi)
        assert got >= max(vals) - 1e-6 * max(1.0, abs(max(vals)))

    def test_surrogate_bound_and_tangency(self):
        rng = np.random.default_rng(8)
        c_hat, h_bu, w, aux = _random_rcv_instance(rng)
        u, phi = build_rcv_quadratic(w, aux, c_hat, h_bu)
        u = (u + u.conj().T) / 2
        lam = float(np.linalg.eigvalsh(u)[-1])
        v_t = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        scale = max(1.0, np.linalg.norm(u))
        tangent_gap = mm_surrogate(v_t, v_t, u, lam) - np.real(np.vdot(v_t, u @ v_t))
        assert abs(tangent_gap) <= 1e-10 * scale
        for _ in range(100):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            assert (np.real(np.vdot(v, u @ v))
                    <= mm_surrogate(v, v_t, u, lam) + 1e-10 * scale)

    def test_objective_monotone_per_step(self):
        rng = np.random.default_rng(9)
        c_hat, h_bu, w, aux = _random_rcv_instance(rng)
        u, phi = build_rcv_quadratic(w, aux, c_hat, h_bu)
        u = (u + u.conj().T) / 2
        lam = float(np.linalg.eigvalsh(u)[-1])
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        obj = rcv_objective(v, u @ v, phi)
        for _ in range(30):
            v = mm_step(v, u @ v, phi, lam)
            obj_new = rcv_objective(v, u @ v, phi)
            assert obj_new >= obj - 1e-10 * max(1.0, abs(obj))
            obj = obj_new

    def test_four_group_fixed_point_matches_grid(self):
        rng = np.random.default_rng(10)
        c_hat, h_bu, w, aux = _random_rcv_instance(rng, q=4)
        u, phi = build_rcv_quadratic(w, aux, c_hat, h_bu)
        u = (u + u.conj().T) / 2
        out = np.exp(1j * update_rcv_mm(np.exp(1j * np.angle(-phi)), w, aux, c_hat, h_bu,
                                        max_inner=300, tol=1e-14))
        f_mm = rcv_objective(out, u @ out, phi)

        # the 64^4 phase grid, one chunk per first phase over the other three
        res = 64
        th = np.exp(1j * 2 * np.pi * np.arange(res) / res)
        best = -np.inf
        chunk = np.empty((res ** 3, 4), dtype=complex)
        chunk[:, 1:] = np.stack(np.meshgrid(th, th, th, indexing="ij"), axis=-1).reshape(-1, 3)
        for a in th:
            chunk[:, 0] = a
            conj = chunk.conj()
            quad = np.einsum("ni,ni->n", conj @ u, chunk).real
            lin = 2 * (conj @ phi).real
            best = max(best, float(np.max(-quad - lin)))
        lam = float(np.linalg.eigvalsh(u)[-1])
        tol_grid = (2 * lam * 2.0 + 2 * np.linalg.norm(phi)) * (np.pi / res) * np.sqrt(2.0)
        assert abs(f_mm - best) <= tol_grid

    def test_non_hermitian_rejected(self):
        # an imaginary per-user scale turns each user's Hermitian term
        # skew-Hermitian: build_rcv_quadratic refuses the sum, and so the
        # reflection update refuses it before any step
        rng = np.random.default_rng(11)
        c_hat, h_bu, w, aux = _random_rcv_instance(rng, q=2)
        bad = types.SimpleNamespace(xi_sq_pow=(1j,) * 3, alpha_conj_xi=aux.alpha_conj_xi)
        with pytest.raises(ValueError, match="not Hermitian"):
            build_rcv_quadratic(w, bad, c_hat, h_bu)
        with pytest.raises(ValueError, match="not Hermitian"):
            update_rcv_mm(np.ones(2, dtype=complex), w, bad, c_hat, h_bu,
                          max_inner=50, tol=1e-10)


# a budget or noise power that is not a finite number > 0; NaN and inf passed the former
# `<= 0` checks and failed inside stage 1 as an "ill-posed auxiliary update"
NOT_POSITIVE = pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])


class TestPositiveInputs:
    @NOT_POSITIVE
    def test_block_updates_name_the_input(self, value):
        h, w = np.ones((2, 2), dtype=complex), np.ones((2, 2), dtype=complex)
        aux = update_auxiliaries(*rx_stats(h, w, 1.0), np.ones(2))
        for call, name in [(lambda: sinr_all(h, w, value), "noise power"),
                           (lambda: rx_stats(h, w, value), "noise power"),
                           (lambda: update_precoder(aux, h, value), "power budget")]:
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
                call()

    @NOT_POSITIVE
    def test_channel_set_refuses_noise(self, value):
        ch = build_scenario(ScenarioConfig(N=16, Q=2, M=2, K=2, seed=5), np.random.default_rng(5))
        with pytest.raises(ValueError, match="^noise power must be finite and positive, got "):
            dataclasses.replace(ch, noise_power=value)

    @NOT_POSITIVE
    def test_budget_refused_before_any_solve(self, value, monkeypatch):
        cfg = ScenarioConfig(N=16, Q=2, M=2, K=2, seed=5)
        ch = build_scenario(cfg, np.random.default_rng(5))
        calls = []
        monkeypatch.setattr(bf, "effective_channels", lambda *a: calls.append(a))
        c_hat = grp.combine_cascades(adjacent_grouping(16, 2), map(ch.cascade, range(2)))
        with pytest.raises(ValueError, match="^power budget must be finite and positive, got "):
            solve_fp(c_hat, ch.h_bu, ch.noise_power, value, cfg.weights, np.zeros(2),
                     SolverOptions())
        monkeypatch.setattr(bf, "solve_fp", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^power budget must be finite and positive, got "):
            two_stage_solve(ch, 2, value, cfg.weights)
        assert calls == []


class TestSolveLoop:
    def _manual_channelset(self, rng, n=32, m=1, k=1, direct=0.0):
        h_bi = random_complex(rng, (m, n))
        h_iu = random_complex(rng, (k, n))
        h_bu = direct * random_complex(rng, (k, m))
        return ChannelSet(h_bi=h_bi, h_iu=h_iu, h_bu=h_bu,
                          h_bi_stat=h_bi * 0.1, h_iu_stat=h_iu * 0.1, h_bu_stat=h_bu * 0.1,
                          noise_power=1e-2)

    def test_phase_alignment_at_full_resolution(self):
        # ungrouped single-user link without a direct path: the converged
        # reflection collects the full l1 mass of the cascade
        rng = np.random.default_rng(12)
        ch = self._manual_channelset(rng)
        n = ch.num_elements
        res = two_stage_solve(ch, n, 1.0, (1.0,), opts=SolverOptions(tol=1e-12, max_outer=500),
                              grouping=adjacent_grouping(n, n))
        c = ch.cascade(0)[:, 0]
        achieved = abs(np.vdot(np.exp(1j * res.rcv), c))
        assert abs(achieved - np.abs(c).sum()) <= 1e-6 * np.abs(c).sum()

    def test_adjacent_at_full_groups_equals_identity(self):
        cfg = ScenarioConfig(N=16, Q=16, M=2, K=2, seed=3)
        ch = build_scenario(cfg, np.random.default_rng(3))
        res_adj = two_stage_solve(ch, 16, cfg.power_watts, cfg.weights,
                                  grouping=adjacent_grouping(16, 16))
        res_idn = two_stage_solve(ch, 16, cfg.power_watts, cfg.weights,
                                  grouping=GroupingMatrix(assignment=np.arange(1, 17), num_groups=16))
        assert np.array_equal(res_adj.grouping.assignment, res_idn.grouping.assignment)
        assert res_adj.wsr_bits == res_idn.wsr_bits

    def test_matches_joint_grid_search_two_groups(self):
        # single user, single antenna, two groups: exhaustive phase grid with
        # the known optimal full-power matched beam as the oracle
        rng = np.random.default_rng(13)
        ch = self._manual_channelset(rng, n=8, direct=0.5)
        q = 2
        res = two_stage_solve(ch, q, 1.0, (1.0,), opts=SolverOptions(tol=1e-12, max_outer=400),
                              grouping=adjacent_grouping(8, q))
        c_hat = combine_cascade(adjacent_grouping(8, q), ch.cascade(0))
        p_max, noise = 1.0, ch.noise_power
        gridsize = 256
        th = 2 * np.pi * np.arange(gridsize) / gridsize
        best = -np.inf
        for a in th:
            v = np.exp(1j * np.stack([np.full(gridsize, a), th]))
            heff = np.abs(np.conj(v[0]) * c_hat[0, 0] + np.conj(v[1]) * c_hat[1, 0]
                          + ch.h_bu[0, 0]) ** 2
            best = max(best, float(np.max(heff)))
        rate_grid = np.log2(1 + p_max * best / noise)
        # grid resolution bound on |h|^2
        slack = 2 * np.abs(c_hat).sum() * (np.abs(c_hat).sum() + abs(ch.h_bu[0, 0])) \
            * (np.pi / gridsize) * np.sqrt(2)
        rate_slack = np.log2(1 + p_max * (best + slack) / noise) - rate_grid + 1e-9
        assert res.wsr_bits >= rate_grid - rate_slack
        assert res.wsr_bits <= rate_grid + rate_slack

    def test_no_reflector_loop(self):
        rng = np.random.default_rng(14)
        k, m = 2, 3
        h_bu = random_complex(rng, (k, m))
        c_hat = np.zeros((k, 0, m), dtype=complex)
        w0 = matched_precoder(h_bu, 1.0)
        res = solve_fp(c_hat, h_bu, 1e-2, 1.0, np.ones(k), np.zeros(0), SolverOptions(), w0)
        assert res.converged
        assert len(res.rcv) == 0 and res.grouping is None

    @pytest.mark.parametrize("case", ["no_irs", "q4", "stage1"])
    def test_falling_objective_raises(self, case, monkeypatch):
        # every block update is an ascent step, so a falling trace is a defect, raised by
        # solve_fp at Q = 0, at Q > 0 and in stage 1's first statistical solve
        calls = []

        def falling(*args):
            calls.append(args)
            return -float(len(calls))

        monkeypatch.setattr(bf, "fp_objective", falling)
        opts = SolverOptions(max_outer=3)
        with pytest.raises(RuntimeError, match=r"^objective trace falls by 1\.00e\+00 relative"):
            if case == "stage1":
                cfg = ScenarioConfig(N=64, Q=4, seed=8)
                ch = build_scenario(cfg, np.random.default_rng(44))
                two_stage_solve(ch, cfg.Q, cfg.power_watts, cfg.weights, opts=opts)
            else:
                solve_fp(*_loop_problem(case), opts)
        assert len(calls) == opts.max_outer         # raised at the close of the first solve

    @pytest.mark.parametrize("given, missing", [({"weights": (1.0,)}, "p_max"),
                                                 ({"p_max": 1.0}, "weights")])
    def test_missing_budget_or_weights_named(self, given, missing):
        # both are required arguments, with no fallback read from the channels
        ch = self._manual_channelset(np.random.default_rng(15), n=8)
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{missing}'"):
            two_stage_solve(ch, 2, **given)

    @BAD_WEIGHTS
    @pytest.mark.parametrize("stage1", ["arc-search", "given-grouping"])
    def test_bad_weights_named(self, weights, stage1):
        # rejected up front: not an IndexError in stage 1, nor a sqrt warning
        # followed by a failure downstream
        cfg = ScenarioConfig(N=16, Q=2, seed=5)
        ch = build_scenario(cfg, np.random.default_rng(5))
        grouping = adjacent_grouping(16, 2) if stage1 == "given-grouping" else None
        with np.errstate(all="raise"), pytest.raises(ValueError, match="weights"):
            two_stage_solve(ch, 2, cfg.power_watts, weights, grouping=grouping)

    def test_largest_weight_solves_to_finite_rate(self):
        # the bound leaves room: no overflow or NaN anywhere in the solve
        cfg = ScenarioConfig(N=16, Q=4, seed=5, power_dbm=100.0, weights=(1, 1, 1, MAX_WEIGHT))
        ch = build_scenario(cfg, np.random.default_rng(5))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            res = two_stage_solve(ch, 4, cfg.power_watts, cfg.weights)
        assert np.isfinite(res.wsr_bits) and res.wsr_bits > 0

    def test_q_bounds(self):
        cfg = ScenarioConfig(N=16, Q=2, M=2, K=2, seed=5)
        ch = build_scenario(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError, match="^need 1 <= Q <= N, got Q=0, N=16$"):
            two_stage_solve(ch, 0, cfg.power_watts, cfg.weights)
        with pytest.raises(ValueError, match="^need 1 <= Q <= N, got Q=17, N=16$"):
            two_stage_solve(ch, 17, cfg.power_watts, cfg.weights)

    @pytest.mark.parametrize("assignment, q, message", [
        (adjacent_grouping(16, 3).assignment, 3, "of 16 elements into 3 groups, need 16 into 2"),
        (adjacent_grouping(15, 2).assignment, 2, "of 15 elements into 2 groups, need 16 into 2"),
        ([1] * 15 + [3], 2, r"^element 15 has label 3 outside \[1, 2\]$"),
        ([1] * 16, 2, "^group 2 is empty$")],
        ids=["num_groups", "num_elements", "bad_label", "empty_group"])
    def test_fixed_grouping_checked(self, assignment, q, message):
        # labels and empty groups are refused when the grouping is built, its
        # shape when two_stage_solve receives it
        cfg = ScenarioConfig(N=16, Q=2, M=2, K=2, seed=5)
        ch = build_scenario(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError, match=message):
            two_stage_solve(ch, 2, cfg.power_watts, cfg.weights,
                            grouping=GroupingMatrix(assignment=assignment, num_groups=q))

    def test_stationary_under_reflection_probes(self):
        # at convergence no small unit-modulus perturbation of the reflection
        # improves the internal objective at the converged beams/auxiliaries
        cfg = ScenarioConfig(N=128, Q=4, M=3, K=3, seed=2)
        ch = build_scenario(cfg, np.random.default_rng(2))
        res = two_stage_solve(ch, 4, cfg.power_watts, cfg.weights,
                              opts=SolverOptions(tol=1e-10, max_outer=400))
        assert res.converged
        weights = np.ones(3)
        c_hat = np.stack([combine_cascade(res.grouping, ch.cascade(k)) for k in range(3)])
        h = effective_channels(np.exp(1j * res.rcv), c_hat, ch.h_bu)
        stats = rx_stats(h, res.precoder.w, ch.noise_power)
        aux = update_auxiliaries(*stats, weights)
        base = fp_objective(*stats, aux)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = np.exp(1j * (res.rcv + 1e-3 * rng.standard_normal(4)))
            probed = oracles.fp_at(v, res.precoder.w, aux, c_hat, ch.h_bu, ch.noise_power)
            assert probed <= base + 1e-9 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# Bit-exactness of the alternating loop against its one-quantity-per-block form


def _loop_problem(case):
    """(c_hat, h_bu, noise, p_max, weights, v0) of a seeded scene."""
    n, q = {"no_irs": (64, 4), "q4": (64, 4), "identity": (64, 64), "uirs_q": (256, 16),
            "q64": (256, 64)}[case]
    cfg = ScenarioConfig(N=n, Q=q, seed=8)
    ch = build_scenario(cfg, np.random.default_rng(40 + q))
    weights = np.asarray(cfg.weights, dtype=float)
    cascades = np.stack([ch.cascade(k) for k in range(ch.num_users)])
    h_bu = ch.h_bu
    if case == "no_irs":
        c_hat = np.zeros((ch.num_users, 0, cfg.M), dtype=complex)
    elif case == "uirs_q":
        # controlled rows as a strided view of the (K, N, M) stack
        c_hat = cascades[:, :q]
        vu = np.exp(1j * np.random.default_rng(3).uniform(0.0, 2 * np.pi, n - q))
        h_bu = h_bu + np.einsum("knm,n->km", cascades[:, q:].conj(), vu)
    else:
        g = adjacent_grouping(n, q)
        c_hat = np.stack([combine_cascade(g, c) for c in cascades])
    v0 = np.random.default_rng(5).uniform(0.0, 2 * np.pi, c_hat.shape[1])
    return c_hat, h_bu, ch.noise_power, cfg.power_watts, weights, v0


def _assert_same_solve(a, b):
    assert (a.grouping is None) == (b.grouping is None)
    assert a.grouping is None or np.array_equal(a.grouping.assignment, b.grouping.assignment)
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert np.array_equal(a.trace_steps, b.trace_steps)
    assert np.array_equal(a.precoder.w, b.precoder.w) and a.precoder.lagrange == b.precoder.lagrange
    assert np.array_equal(a.rcv, b.rcv)
    assert np.array_equal(a.aux.xi, b.aux.xi) and np.array_equal(a.aux.varsigma, b.aux.varsigma)
    assert a.wsr_bits == b.wsr_bits


class TestLoopBitExact:
    @pytest.mark.parametrize("case", ["no_irs", "q4", "identity", "uirs_q", "q64"])
    def test_solve_fp_matches_reference(self, case):
        problem = _loop_problem(case)
        opts = SolverOptions(max_outer=60)
        out = solve_fp(*problem, opts)
        assert out.iterations > 2
        if case == "uirs_q":
            assert not problem[0].flags.c_contiguous
        _assert_same_solve(out, oracles.solve_fp(*problem, opts))

    @pytest.mark.parametrize("case", ["no_irs", "q4", "identity", "uirs_q", "q64"])
    def test_block_trace_monotone(self, case):
        # solve_fp records only the closing objective of each iteration; the
        # reference, whose iterates are solve_fp's bit for bit, records the
        # objective after every block, and it never falls by more than rounding
        problem = _loop_problem(case)
        opts = SolverOptions(max_outer=60)
        steps = oracles.solve_fp(*problem, opts, blocks=True).trace_steps
        assert np.array_equal(steps[2::3], solve_fp(*problem, opts).trace_steps)
        assert bf.trace_fall(steps) <= bf.TRACE_SLACK

    @pytest.mark.parametrize("case", ["no_irs", "q64", "uirs_q"])
    def test_default_start_is_matched_filter(self, case):
        # omitting w0 starts from the matched filter to the effective
        # channels at v0, bit for bit as a caller once formed it
        problem = _loop_problem(case)
        c_hat, h_bu, _, p_max, _, v0 = problem
        opts = SolverOptions(max_outer=60)
        default = solve_fp(*problem, opts)
        given = solve_fp(*problem, opts, oracles.matched_start(v0, c_hat, h_bu, p_max))
        assert default.iterations > 2
        _assert_same_solve(default, given)

    def test_precoder_only_solve_forms_h_once(self, monkeypatch):
        # at Q = 0 the reflection block leaves h unchanged, so the loop keeps
        # the statistics after the precoder update instead of re-forming h;
        # the default start is the matched filter to that same h
        problem = _loop_problem("no_irs")
        c_hat, h_bu, _, p_max, _, v0 = problem
        w0 = oracles.matched_start(v0, c_hat, h_bu, p_max)
        calls = []
        original = bf.effective_channels
        monkeypatch.setattr(bf, "effective_channels", lambda *a: calls.append(a) or original(*a))
        for start in (w0, None):
            calls.clear()
            out = solve_fp(*problem, SolverOptions(max_outer=60), start)
            assert out.iterations > 2
            assert len(calls) == 1

    def test_rcv_update_matches_reference(self):
        rng = np.random.default_rng(21)
        for q, max_inner in ((1, 3), (4, 50), (16, 0), (64, 30)):
            c_hat, h_bu, w, aux = _random_rcv_instance(rng, q=q)
            v = np.exp(1j * rng.uniform(0.0, 2 * np.pi, q))
            args = (v, w, aux, c_hat, h_bu)
            new = update_rcv_mm(*args, max_inner=max_inner, tol=1e-12)
            ref = oracles.rcv_mm(*args, max_inner=max_inner, tol=1e-12)
            assert np.array_equal(new, ref)

    def test_rcv_quadratic_matches_reference(self):
        rng = np.random.default_rng(22)
        shapes = [(1, 1, 1), (3, 2, 16), (4, 4, 256)]
        shapes += [(k, m, q) for k in range(1, 6) for m in range(1, 6) for q in (1, 5)]
        for k, m, q in shapes:
            c_hat, h_bu, w, aux = _random_rcv_instance(rng, k=k, m=m, q=q)
            for stack in _strided_stacks(c_hat):
                u, phi = build_rcv_quadratic(w, aux, stack, h_bu)
                u_ref, phi_ref = oracles.rcv_quadratic(w, aux, stack, h_bu)
                assert np.array_equal(u, u_ref) and np.array_equal(phi, phi_ref)

    @pytest.mark.parametrize("q", [1, 4, 256])
    @pytest.mark.parametrize("kind", ["random", "statistical", "zero"])
    def test_rcv_quadratic_halved_on_float_view(self, kind, q):
        # U is halved on its float view; complex division by 2.0 would turn a
        # -0.0 part into +0.0, so the two forms agree bit for bit only while
        # no part of U is -0.0
        rng = np.random.default_rng(27)
        c_hat, h_bu, w, aux = _random_rcv_instance(rng, k=4, m=4, q=q)
        if kind == "statistical":               # rank-one cascades of a scene
            ch = build_scenario(ScenarioConfig(N=256, Q=q, seed=2), np.random.default_rng(2))
            cascades, w = oracles.stat_inputs(ch)
            c_hat = grp.combine_cascades(adjacent_grouping(256, q), cascades)
            h_bu = ch.h_bu_stat
            aux = update_auxiliaries(*rx_stats(effective_channels(np.ones(q), c_hat, h_bu), w,
                                                ch.noise_power), np.ones(4))
            assert np.linalg.matrix_rank(cascades[0]) == 1
        elif kind == "zero":
            c_hat = np.zeros_like(c_hat)
        u, _ = build_rcv_quadratic(w, aux, c_hat, h_bu)
        parts = u.view(float)
        assert not np.signbit(parts[parts == 0.0]).any()
        assert np.abs(parts[parts != 0.0]).min(initial=np.inf) > 4 * np.finfo(float).tiny
        summed = (parts * 2.0).view(complex)    # U + U^H, exactly: no part is subnormal
        assert np.array_equal((summed / 2.0).view(np.uint64), u.view(np.uint64))
        u_ref, _ = oracles.rcv_quadratic(w, aux, c_hat, h_bu)
        assert np.array_equal(u_ref.view(np.uint64), u.view(np.uint64))

    def test_hermitian_check_norms_match_linalg(self):
        rng = np.random.default_rng(26)
        for q in (1, 4, 37, 256):
            u = random_complex(rng, (q, q))
            for view in (u, u.T, u.conj().T):
                assert bf._frobenius(view) == np.linalg.norm(view)
            skew = u.conj().T                       # the skew as update_rcv_mm once formed it
            skew -= u
            scratch = np.empty_like(u)
            np.conjugate(u, out=scratch)
            scratch -= u.T
            assert bf._frobenius(scratch) == np.linalg.norm(skew)

    def test_joint_phase_rotation_matches_reference(self):
        rng = np.random.default_rng(23)
        for k in range(1, 6):
            for m in range(1, 6):
                for q in (1, 5, 64):
                    c_hat, h_bu, w, aux = _random_rcv_instance(rng, k=k, m=m, q=q)
                    v = np.exp(1j * rng.uniform(0.0, 2 * np.pi, q))
                    for stack in _strided_stacks(c_hat):
                        aux_w = FPAuxiliaries(varsigma=aux.varsigma, xi=aux.xi,
                                              weights=rng.uniform(0.5, 2.0, k))
                        args = (v, w, aux_w, stack, h_bu)
                        v_new, w_new = bf.joint_phase_rotation(*args)
                        v_ref, w_ref = oracles.joint_phase_rotation(*args)
                        assert np.array_equal(v_new, v_ref) and np.array_equal(w_new, w_ref)

    def test_scalar_pow_xi_kept(self):
        # |xi|^2 of this xi is 0.8472001102896298 by scalar pow and
        # 0.8472001102896299 by the array square: the per-user terms keep
        # the scalar form the per-user loops used
        xi0 = 0.9084019250927495 + 0.14834437224720298j
        assert float(np.abs(xi0)) ** 2 == 0.8472001102896298
        assert (np.abs(np.array([xi0])) ** 2)[0] == 0.8472001102896299
        rng = np.random.default_rng(24)
        c_hat, h_bu, w, _ = _random_rcv_instance(rng, k=3, m=2, q=6)
        aux = FPAuxiliaries(varsigma=np.array([0.7, 1.3, 0.2]),
                            xi=np.array([xi0, 0.3 - 0.8j, -0.5 + 0.1j]),
                            weights=np.array([1.0, 0.5, 2.0]))
        assert aux.xi_sq_pow[0] == 0.8472001102896298
        u, phi = build_rcv_quadratic(w, aux, c_hat, h_bu)
        u_ref, phi_ref = oracles.rcv_quadratic(w, aux, c_hat, h_bu)
        assert np.array_equal(u, u_ref) and np.array_equal(phi, phi_ref)
        v = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 6))
        got = bf.joint_phase_rotation(v, w, aux, c_hat, h_bu)
        ref = oracles.joint_phase_rotation(v, w, aux, c_hat, h_bu)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_aux_owns_its_weights(self):
        rng = np.random.default_rng(25)
        c_hat, h_bu, w, base = _random_rcv_instance(rng, k=3, m=2, q=4)
        weights = np.array([1.0, 2.0, 0.5])
        aux = FPAuxiliaries(varsigma=base.varsigma, xi=base.xi, weights=weights)
        weights[:] = 3.0                                # the caller's array, changed afterwards
        fresh = FPAuxiliaries(varsigma=base.varsigma, xi=base.xi, weights=[1.0, 2.0, 0.5])
        assert np.array_equal(aux.weights, [1.0, 2.0, 0.5])
        assert np.array_equal(aux.two_alpha, 2.0 * np.sqrt(aux.weights * (1.0 + aux.varsigma)))
        for fn in (lambda a: build_rcv_quadratic(w, a, c_hat, h_bu),
                   lambda a: precoder_quadratic(a, h_bu)):
            for got, ref in zip(fn(aux), fn(fresh)):
                assert np.array_equal(got, ref)
        stats = rx_stats(h_bu, w, 0.1)
        assert fp_objective(*stats, aux) == fp_objective(*stats, fresh)
        for arr in (aux.varsigma, aux.xi, aux.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0                            # read-only: the terms cannot go stale

    @pytest.mark.parametrize("stage1", ["arc-search", "phase-partition"])
    def test_two_stage_solve_matches_reference(self, stage1, monkeypatch):
        # "phase-partition" passes the arc search's seed as a fixed grouping,
        # so stage 1 runs no statistical solve
        cfg = ScenarioConfig(N=1024, Q=4, seed=1)
        ch = build_scenario(cfg, np.random.default_rng(9))
        grouping = None
        if stage1 == "phase-partition":
            grouping = oracles.arc_seed(ch, np.asarray(cfg.weights, dtype=float), 4)
        new = two_stage_solve(ch, 4, cfg.power_watts, cfg.weights, grouping=grouping)
        monkeypatch.setattr(bf, "solve_fp", oracles.solve_fp)
        monkeypatch.setattr(grp, "combine_cascade", oracles.combine)
        ref = two_stage_solve(ch, 4, cfg.power_watts, cfg.weights, grouping=grouping)
        _assert_same_solve(new, ref)


def _strided_stacks(c_hat):
    """c_hat itself and the same values as a strided (K, Q, M) view, as uirs_q slices them."""
    q = c_hat.shape[1]
    return c_hat, np.concatenate([c_hat, c_hat], axis=1)[:, :q]


class TestObjectiveCalls:
    @pytest.mark.parametrize("scheme", tuple(SCHEME_DIMS))
    def test_one_objective_per_outer_iteration(self, scheme, monkeypatch):
        # a scheme's solves evaluate the objective once per outer iteration,
        # stage 1's statistical solves included
        cfg = ScenarioConfig(N=32, Q=4, M=2, K=2, seed=4)
        ch = build_scenario(cfg, np.random.default_rng(4))
        objectives, iterations = [], []
        fp_objective_, solve_fp_ = bf.fp_objective, bf.solve_fp

        def counted_solve(*args, **kwargs):
            res = solve_fp_(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(bf, "fp_objective", lambda *a: objectives.append(a) or fp_objective_(*a))
        monkeypatch.setattr(bf, "solve_fp", counted_solve)
        row = run_scheme(scheme, ch, cfg, 5)
        assert len(objectives) == sum(iterations) >= row.iterations > 0
        assert len(iterations) > (1 if scheme == "ieg" else 0)


# ---------------------------------------------------------------------------
# Stage 1 against the arc search followed by the relaxed-program refinement


def _stage1_scene(case):
    """(channels, Q, p_max, weights) of trial t of a seeded scene (c11's seed and layout).

    Where a trial among the first eight has one, t is a trial whose grouping
    a per-user arc (or, at 30 dBm, a later search round) decides. In
    "30dBm_t3", a candidate solved before an improvement comes back after
    it and wins, so the repeat record must be cleared when the state moves.
    """
    trial, kw = {"c11_n256": (0, dict(N=256)), "c11_n1024": (3, dict(N=1024)),
                 "q2": (0, dict(N=256, Q=2)), "q16": (2, dict(N=256, Q=16)),
                 "unobscured": (6, dict(N=256, scenario="unobscured")),
                 "kappa0.1": (6, dict(N=256, kappa_bi=0.1, kappa_iu=0.1, kappa_bu=0.1)),
                 "kappa10": (1, dict(N=256, kappa_bi=10.0, kappa_iu=10.0, kappa_bu=10.0)),
                 "30dBm": (4, dict(N=256, power_dbm=30.0)),
                 "30dBm_t3": (3, dict(N=256, power_dbm=30.0))}[case]
    cfg = ScenarioConfig(**{"Q": 4, "seed": 11, **kw})
    return trial_draw(cfg, trial)[1], cfg.Q, cfg.power_watts, cfg.weights


class TestHeuristicRcv:
    """The one phase rule against sum_k coef_k C_k w_k, row by row, by np.einsum."""

    @staticmethod
    def _stage1_inputs(monkeypatch):
        """The statistical stack two_stage_solve builds, its matched beams, and a scene.
        Stage 1's sums read the stack in stat_cascades' layout; another moves their last bits."""
        ch, q, p_max, weights = _stage1_scene("q16")
        seen = []

        def record(channels, cascades_stat, w_mf, *args):
            seen.append((cascades_stat, w_mf))
            raise StopIteration

        monkeypatch.setattr(bf, "_grouping_from_statistics", record)
        with pytest.raises(StopIteration):
            two_stage_solve(ch, q, p_max, weights)
        stack = ch.stat_cascades()
        assert seen[0][0].strides == stack.strides and seen[0][0].tobytes() == stack.tobytes()
        return ch, q, *seen[0]

    @staticmethod
    def _assert_phases(cascades, w, coef):
        phases = bf.heuristic_rcv(cascades, w, coef)
        oracle = np.einsum("k,krm,mk->r", coef, cascades, w)
        zero = oracle == 0
        assert phases.shape == zero.shape and np.all(phases[zero] == 0.0)
        unit = oracle[~zero] / np.abs(oracle[~zero])
        assert np.abs(np.exp(1j * phases[~zero]) - unit).max() <= 1e-12
        return zero

    @pytest.mark.parametrize("stack", ["statistical", "grouped"])
    @pytest.mark.parametrize("coef", ["weights_with_a_zero", "alpha_conj_xi"])
    def test_matches_einsum(self, stack, coef, monkeypatch):
        ch, q, cascades_stat, w_mf = self._stage1_inputs(monkeypatch)
        assert cascades_stat.strides[1:] == (16, 16 * ch.num_elements)    # (K, N, M), strided
        weights = np.array([1.0, 0.0, 2.5, 0.75])
        c_hat = grp.combine_cascades(grp.adjacent_grouping(ch.num_elements, q), cascades_stat)
        if coef == "alpha_conj_xi":
            # beams off the matched filter, so that xi is far from real
            h = effective_channels(np.ones(q), c_hat, ch.h_bu_stat)
            w_off = w_mf * np.exp(1j * np.arange(1, 5))
            coef = update_auxiliaries(*rx_stats(h, w_off, ch.noise_power), weights).alpha_conj_xi
            assert np.abs(np.angle(coef[weights > 0])).min() > 0.1
        else:
            coef = weights
        cascades = cascades_stat if stack == "statistical" else c_hat
        assert not self._assert_phases(cascades, w_mf, coef).any()

    def test_zero_sum_has_phase_zero(self, monkeypatch):
        ch, q, cascades_stat, w_mf = self._stage1_inputs(monkeypatch)
        c_hat = grp.combine_cascades(grp.adjacent_grouping(ch.num_elements, q), cascades_stat)
        c_hat[:, 5] = 0.0
        assert np.flatnonzero(self._assert_phases(c_hat, w_mf, np.ones(4))).tolist() == [5]


class TestStage1BitExact:
    @pytest.mark.parametrize("kw", [dict(), dict(K=1), dict(M=1), dict(K=1, M=1, N=37),
                                    dict(N=37), dict(kappa_bi=0.0), dict(kappa_iu=0.0)],
                             ids=["K=M=4", "K=1", "M=1", "K=M=1_N=37", "N=37", "kappa_bi=0",
                                  "kappa_iu=0"])
    @pytest.mark.parametrize("given", [False, True], ids=["searched", "given"])
    def test_statistical_stack_filled_in_place(self, kw, given, monkeypatch):
        # ChannelSet.stat_cascades, user by user in place, against np.stack of the
        # former two-conjugate formula: same bytes (signs of zeros at kappa = 0
        # included), same strides; both stages read the stack it fills
        cfg = ScenarioConfig(**{"N": 64, "Q": 2, "seed": 6, **kw})
        ch = build_scenario(cfg, np.random.default_rng(6))
        stack = ch.stat_cascades()
        ref = oracles.stat_stack(ch)
        assert stack.shape == ref.shape and stack.tobytes() == ref.tobytes()
        # the stride of a length-1 axis is never stepped (at M = 1 it is N*16, not 16)
        assert [s for s, d in zip(stack.strides, stack.shape) if d > 1] == \
            [s for s, d in zip(ref.strides, ref.shape) if d > 1]
        seen = []

        def record(cascades_stat, h_bu_stat):
            seen.append(cascades_stat)
            raise StopIteration

        monkeypatch.setattr(bf, "stat_matched_beams", record)
        with pytest.raises(StopIteration):
            two_stage_solve(ch, cfg.Q, cfg.power_watts, cfg.weights,
                            grouping=adjacent_grouping(cfg.N, cfg.Q) if given else None)
        assert seen[0].strides == stack.strides and seen[0].tobytes() == stack.tobytes()

    @pytest.mark.parametrize("case", ["c11_n256", "q2", "30dBm_t3"])
    def test_round_forms_each_beam_product_once(self, case, monkeypatch):
        # each search round forms the K per-user products C_k w_k once, for the
        # mixed arc and the users' own arcs; the seed's heuristic_rcv forms K more
        ch, q, p_max, weights = _stage1_scene(case)
        k_users, n = ch.num_users, ch.num_elements
        products, arcs = [], []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ other
                if out.shape == (n,):
                    products.append(1)
                return out

        grouping_from_statistics = bf._grouping_from_statistics
        phase_arc_grouping = grp.phase_arc_grouping

        def counted(channels, cascades_stat, *args):
            return grouping_from_statistics(channels, cascades_stat.view(Counted), *args)

        def counted_arcs(phases, q):
            arcs.append(len(phases))
            return phase_arc_grouping(phases, q)

        new = two_stage_solve(ch, q, p_max, weights)
        monkeypatch.setattr(bf, "_grouping_from_statistics", counted)
        monkeypatch.setattr(grp, "phase_arc_grouping", counted_arcs)
        ref = two_stage_solve(ch, q, p_max, weights)
        _assert_same_solve(new, ref)
        rounds, rest = divmod(arcs.count(n) - 1, k_users + 1)
        assert rest == 0 and rounds >= 1
        assert len(products) == k_users * (1 + rounds)

    @pytest.mark.parametrize("case", ["c11_n256", "c11_n1024", "q2", "q16", "unobscured",
                                      "kappa0.1", "kappa10", "30dBm"])
    def test_matches_relaxed_refinement_reference(self, case, monkeypatch):
        ch, q, p_max, weights = _stage1_scene(case)
        new = two_stage_solve(ch, q, p_max, weights)
        calls = []

        def reference(*args):
            return oracles.grouping_from_statistics(*args, calls)

        monkeypatch.setattr(bf, "_grouping_from_statistics", reference)
        ref = two_stage_solve(ch, q, p_max, weights)
        assert calls == [q]
        _assert_same_solve(new, ref)

    @pytest.mark.parametrize("case, skipped", [("c11_n256", 2), ("q2", 2), ("30dBm_t3", 0)])
    def test_repeat_candidates_skipped(self, case, skipped, monkeypatch):
        ch, q, p_max, weights = _stage1_scene(case)
        solves = []
        solve = bf.solve_fp

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bf, "solve_fp", counted)
        new = two_stage_solve(ch, q, p_max, weights)
        n_new = len(solves)

        monkeypatch.setattr(bf, "_grouping_from_statistics", oracles.arc_search)
        ref = two_stage_solve(ch, q, p_max, weights)
        # each run ends with one stage-2 solve; the reference also solves the
        # repeats and, before the arc seed, adjacent blocks
        assert len(solves) - n_new == n_new + skipped + 1
        _assert_same_solve(new, ref)

    def test_full_groups_stop_at_seed(self, monkeypatch):
        # at Q == N every candidate arc relabels the identity, so stage 1 makes
        # one statistical solve, at adjacent blocks, and stage 2 the other
        cfg = ScenarioConfig(N=8, Q=8, seed=0)
        ch = build_scenario(cfg, np.random.default_rng(0))
        channels_of_solves = []
        solve = bf.solve_fp

        def counted(c_hat, h_bu, *args, **kwargs):
            channels_of_solves.append(h_bu)
            return solve(c_hat, h_bu, *args, **kwargs)

        monkeypatch.setattr(bf, "solve_fp", counted)
        res = two_stage_solve(ch, 8, cfg.power_watts, cfg.weights)
        assert [h is ch.h_bu_stat for h in channels_of_solves] == [True, False]
        assert np.array_equal(res.grouping.assignment, adjacent_grouping(8, 8).assignment)
