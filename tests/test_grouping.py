import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from iegirs import beamforming as bf
from iegirs.asymptotics import AsymptoticInputs
from iegirs import grouping as grp
from iegirs.channel import build_scenario, cascade_coefficients
from iegirs.config import ScenarioConfig
from iegirs.grouping import (GroupingMatrix, adjacent_grouping, combine_cascade, count_groupings,
                             grouping_objective, phase_partition_grouping,
                             project_columns_to_simplex, relaxed_qp_grouping)
from iegirs.mathkit import array_response, group_shrink_factor
import oracles


class TestValidate:
    """The three grouping constraints, checked when a GroupingMatrix is built."""

    def test_ok(self):
        g = GroupingMatrix(assignment=[1, 1, 2, 2], num_groups=2)
        assert g.assignment.dtype == np.uint8 and np.bincount(g.assignment - 1, minlength=2).tolist() == [2, 2]

    def test_empty_group_reported(self):
        with pytest.raises(ValueError, match="^group 2 is empty$"):
            GroupingMatrix(assignment=[1, 1, 1, 1], num_groups=2)

    def test_identity_ok(self):
        g = GroupingMatrix(assignment=np.arange(1, 6), num_groups=5)
        assert np.array_equal(g.matrix(), np.eye(5))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"^element 1 has label 3 outside \[1, 2\]$"):
            GroupingMatrix(assignment=[1, 3], num_groups=2)
        with pytest.raises(ValueError, match=r"^element 0 has label 0 outside \[1, 2\]$"):
            GroupingMatrix(assignment=[0, 1, 2], num_groups=2)

    def test_non_integral_label(self):
        # an int cast would truncate these to [1 2] without a word
        with pytest.raises(ValueError, match=r"^element 0 has non-integral label 1.5$"):
            GroupingMatrix(assignment=np.array([1.5, 2.7]), num_groups=2)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match=r"^element 1 has non-integral label nan$"):
            GroupingMatrix(assignment=[1.0, np.nan, 2.0], num_groups=2)

    def test_whole_float_labels_keep_bytes(self):
        ints = GroupingMatrix(assignment=np.array([1, 2, 2, 1]), num_groups=2).assignment
        for labels in ([1.0, 2.0, 2.0, 1.0], np.array([1, 2, 2, 1], dtype=np.uint8)):
            got = GroupingMatrix(assignment=labels, num_groups=2).assignment
            assert got.dtype == ints.dtype and got.tobytes() == ints.tobytes()

    def test_callers_array_is_copied_and_assignment_read_only(self):
        labels = np.array([1, 2, 2, 1])
        g = GroupingMatrix(assignment=labels, num_groups=2)
        labels[:] = 1                                   # would empty group 2 if shared
        assert g.assignment.tolist() == [1, 2, 2, 1]
        with pytest.raises(ValueError):
            g.assignment[0] = 2                         # read-only: an edit cannot skip the checks
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.assignment = np.ones(4, dtype=int)

    def test_matrix_form(self):
        g = GroupingMatrix(assignment=[2, 1, 2], num_groups=2)
        m = g.matrix()
        assert m.shape == (2, 3)
        assert np.array_equal(m.sum(axis=0), np.ones(3))
        assert np.array_equal(m, [[0, 1, 0], [1, 0, 1]])


class TestCountGroupings:
    @pytest.mark.parametrize("n,q,expected", [(3, 2, 3), (4, 2, 7), (4, 4, 1), (2, 4, 0)])
    def test_known_values(self, n, q, expected):
        assert count_groupings(n, q) == expected

    def test_matches_enumeration(self):
        for n in range(1, 8):
            for q in range(1, n + 1):
                assert count_groupings(n, q) == oracles.partition_count(n, q)

    def test_exact_big_integers(self):
        # 2^50 - 1 pairs of groups: exact arithmetic, no float rounding
        assert count_groupings(50, 2) == 2 ** 49 - 1
        assert count_groupings(200, 3) % 1 == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            count_groupings(4, 0)

    def test_inexact_division_raises(self, monkeypatch):
        # a real exception, not an assert that python -O strips
        monkeypatch.setattr(grp, "factorial", lambda q: 7)
        with pytest.raises(RuntimeError):
            count_groupings(5, 2)


class TestPhasePartition:
    def test_degenerate_ramp_is_repaired(self):
        # every position is 0, so group 2 takes the first element, the nearest its arc
        g = phase_partition_grouping(0.0, 6, 2)
        assert np.array_equal(g.assignment, [2, 1, 1, 1, 1, 1])

    def test_small_example(self):
        g = phase_partition_grouping(0.3, 4, 2)
        assert np.array_equal(g.assignment, [1, 1, 2, 2])

    def test_equidistribution(self):
        n, q = 2 ** 14, 4
        g = phase_partition_grouping(1.0 / np.sqrt(2.0), n, q)
        sizes = np.bincount(g.assignment - 1, minlength=q)
        assert np.all(np.abs(sizes - n / q) <= 0.01 * n / q)

    def test_needs_enough_elements(self):
        with pytest.raises(ValueError):
            phase_partition_grouping(0.3, 2, 4)


class TestArcWrap:
    """The one wrap, grp._wrap = x - floor(x), against np.mod(x, 1.0) bit for bit."""

    @staticmethod
    def _assert_same_bits(x):
        with np.errstate(invalid="ignore"):
            ref, got = np.mod(x, 1.0), grp._wrap(x)
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_edge_values(self):
        tiny = 2.0 ** -1074
        self._assert_same_bits(np.array([0.0, -0.0, tiny, -tiny, -1e-17, 1.0 - 2.0 ** -53,
                                         2.0 ** 52 + 0.5, -(2.0 ** 52 + 0.5), 1e300, -1e300,
                                         np.inf, -np.inf, np.nan]))

    def test_random_values(self):
        # raw bit patterns (every exponent, subnormals, infinities, NaN
        # payloads) and values near the unit interval
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64).view(float)
        self._assert_same_bits(np.concatenate([bits, rng.uniform(-3.0, 3.0, 500_000)]))

    @pytest.mark.parametrize("q", [1, 2, 4, 16, 256])
    def test_stage1_arcs_match_mod_form(self, q):
        ch = build_scenario(ScenarioConfig(N=1024, Q=4, seed=3), np.random.default_rng(3))
        cascades_stat, w_mf = oracles.stat_inputs(ch)
        rng = np.random.default_rng(q)
        tiny = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, np.pi, -np.pi])
        for phases in (bf.heuristic_rcv(cascades_stat, w_mf, np.ones(ch.num_users)),
                       np.angle(cascades_stat[0] @ w_mf[:, 0]),
                       rng.uniform(-np.pi, np.pi, 1024), np.resize(tiny, 1024),
                       np.full(1024, 0.25)):
            got = grp.phase_arc_grouping(phases, q).assignment
            assert np.array_equal(got, oracles.mod_arc_grouping(-phases / (2 * np.pi), q))

    @pytest.mark.parametrize("delta", [0.0, 0.3, -0.7, 1.0 / np.sqrt(2.0), 769 / 2048,
                                       1e-17, -1e-17, 123.456])
    def test_phase_partition_matches_mod_form(self, delta):
        for n, q in ((6, 2), (64, 4), (1024, 16), (4096, 256)):
            got = phase_partition_grouping(delta, n, q).assignment
            assert np.array_equal(got, oracles.mod_arc_grouping(np.arange(n) * delta, q))


class TestArcGrouping:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position(self, bad):
        # refused before any arithmetic: no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^position 2 is {bad}, not finite$"):
                grp.arc_grouping([0.1, 0.6, bad, 0.3, bad], 2)

    def test_non_finite_delta(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^position 0 is nan, not finite$"):
                phase_partition_grouping(float("nan"), 8, 2)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="^position 0 is nan, not finite$"):
            phase_partition_grouping(float("inf"), 8, 2)           # 0 * inf


class TestGroupCountRule:
    # one rule, config.checked_group_count: arc_grouping([0.1], 2) died inside np.argmin
    # ("attempt to get argmin of an empty sequence"), and phase_arc_grouping(np.zeros(3), 0)
    # inside np.bincount ("'list' argument must have no negative elements")
    @pytest.mark.parametrize("call, q, n", [
        (lambda: grp.arc_grouping([0.1], 2), 2, 1),
        (lambda: grp.phase_arc_grouping(np.zeros(3), 0), 0, 3),
        (lambda: phase_partition_grouping(0.3, 3, 4), 4, 3),
        (lambda: phase_partition_grouping(0.3, 0, 1), 1, 0),
        (lambda: adjacent_grouping(3, 0), 0, 3),
        (lambda: grp.relaxed_qp_grouping(np.zeros((1, 3, 1)), None, None, None, None, 4), 4, 3),
        (lambda: AsymptoticInputs(N=4, Q=8), 8, 4),
        (lambda: ScenarioConfig(N=4, Q=0), 0, 4)],
        ids=["arc", "phase_arc", "partition", "partition_empty", "adjacent", "relaxed",
             "asymptotics", "config"])
    def test_names_both_counts(self, call, q, n):
        with pytest.raises(ValueError, match=f"^need 1 <= Q <= N, got Q={q}, N={n}$"):
            call()


class TestAdjacent:
    def test_even_split(self):
        assert np.array_equal(adjacent_grouping(4, 2).assignment, [1, 1, 2, 2])

    def test_uneven_split(self):
        g = adjacent_grouping(5, 2)
        sizes = np.bincount(g.assignment - 1, minlength=2)
        assert sorted(sizes.tolist()) == [2, 3]

    def test_identity_when_q_equals_n(self):
        assert np.array_equal(adjacent_grouping(3, 3).assignment, [1, 2, 3])


def _check_against_add_at(n, q):
    """combine_cascade(s) of n elements into q groups: same sums, same order, same
    zero signs as np.add.at into zeros with int64 labels, though the grouping
    stores them as uint8 (q < 256) or uint16."""
    rng = np.random.default_rng(q)
    assignment = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, size=n - q)])
    rng.shuffle(assignment)
    g = GroupingMatrix(assignment=assignment, num_groups=q)
    assert g.assignment.dtype == (np.uint8 if q < 256 else np.uint16)
    c = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 8, (n, 3)) + 1j * rng.standard_normal((n, 3))
    c[rng.random(n) < 0.3] = -0.0 - 0.0j
    users = (c, c[:, ::-1], c[::-1], np.asfortranarray(c))
    for x in users + (c.real.copy(), c[:, 0].copy(), c[:, 1].real.copy()):
        expected = oracles.combine(g, x)
        out = combine_cascade(g, x)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
    expected = np.stack([combine_cascade(g, x) for x in users])
    assert grp.combine_cascades(g, iter(users)).tobytes() == expected.tobytes()


class TestCombineCascade:
    def test_identity_grouping_is_noop(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        assert np.array_equal(combine_cascade(adjacent_grouping(5, 5), c), c)

    def test_single_group_sums_columns(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        out = combine_cascade(GroupingMatrix(assignment=np.ones(6, dtype=int), num_groups=1), c)
        assert np.allclose(out[0], c.sum(axis=0))

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(6)
        assignment = rng.integers(1, 4, size=12)
        g = GroupingMatrix(assignment=assignment, num_groups=3) \
            if np.unique(assignment).size == 3 else adjacent_grouping(12, 3)
        c = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        assert np.allclose(combine_cascade(g, c), g.matrix() @ c)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = adjacent_grouping(10, 3)
        a = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert np.allclose(combine_cascade(g, a + b),
                           combine_cascade(g, a) + combine_cascade(g, b))

    def test_l1_contraction(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 20))
            q = int(rng.integers(1, n + 1))
            assignment = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, size=n - q)])
            rng.shuffle(assignment)
            g = GroupingMatrix(assignment=assignment, num_groups=q)
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.abs(combine_cascade(g, c)).sum() <= np.abs(c).sum() + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combine_cascade(adjacent_grouping(4, 2), np.ones((5, 1)))

    @pytest.mark.parametrize("q", [1, 7, 300])
    def test_bitwise_equal_to_add_at(self, q):
        _check_against_add_at(300, q)

    @pytest.mark.parametrize("q", [4, 256])
    def test_full_scale_compact_labels_bitwise_equal_to_add_at(self, q):
        _check_against_add_at(10000, q)

    @pytest.mark.parametrize("q, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16),
                                          (65536, np.uint32)])
    def test_labels_stored_in_smallest_unsigned_type(self, q, dtype):
        g = GroupingMatrix(assignment=np.arange(1, q + 1), num_groups=q)
        assert g.assignment.dtype == dtype
        assert np.array_equal(g.assignment, np.arange(1, q + 1))


def _deterministic_cascade(kappa, theta, n):
    """(a_bar, deterministic cascade) of unit-amplitude links, both of Rician factor
    kappa and steered at theta on an n-element array."""
    a_bar = cascade_coefficients(kappa, kappa)[0]
    h = array_response(n, theta)
    return a_bar, a_bar * np.conj(h) * np.conj(h)


class TestGroupedDeterministicLimit:
    def test_irrational_ramp(self):
        # group means of the pure deterministic cascade approach
        # shrink * a_bar * e^{-j(2q-1)pi/Q} at large group size
        q, mu = 4, 2048
        n = q * mu
        delta = 1.0 / np.sqrt(2.0)
        theta = np.arcsin(delta)
        a_bar, c1 = _deterministic_cascade(10.0, theta, n)
        g = phase_partition_grouping(delta, n, q)
        combined = combine_cascade(g, c1) / mu
        expected = group_shrink_factor(q) * a_bar * np.exp(-1j * (2 * np.arange(1, q + 1) - 1) * np.pi / q)
        rel = np.abs(combined - expected) / np.abs(expected)
        assert np.all(rel < 0.05)

    def test_rational_ramp(self):
        # denominator y = Q * eta with eta = 512; x/y close to 3/8 and coprime
        q, eta = 4, 512
        y = q * eta
        x = 769
        n = 4 * y
        mu = n // q
        delta = x / y
        theta = np.arcsin(delta)
        a_bar, c1 = _deterministic_cascade(10.0, theta, n)
        g = phase_partition_grouping(delta, n, q)
        combined = combine_cascade(g, c1) / mu
        expected = group_shrink_factor(q) * a_bar * np.exp(-1j * (2 * np.arange(1, q + 1) - 1) * np.pi / q)
        rel = np.abs(combined - expected) / np.abs(expected)
        assert np.all(rel < 0.05)


class TestSimplexProjection:
    def test_feasibility_and_idempotence(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((5, 40)) * 3
        p = project_columns_to_simplex(g)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=0), 1.0)
        assert np.allclose(project_columns_to_simplex(p), p)

    def test_interior_point_unchanged(self):
        col = np.array([[0.2], [0.3], [0.5]])
        assert np.allclose(project_columns_to_simplex(col), col)

    def test_matches_brute_force_over_supports(self):
        # the projection lies in the relative interior of one face, so it is
        # the nearest feasible point among the affine projections onto the
        # faces {x_S >= 0, sum(x_S) = 1, x = 0 off S}, one per support S
        rng = np.random.default_rng(10)
        y = np.hstack([rng.standard_normal((4, 300)) * 2,
                       [[1.0, 0.0, 5.0, -1.0], [1.0, 0.0, -5.0, -1.0],
                        [1.0, 0.0, 5.0, -1.0], [1.0, 0.0, 0.25, -3.0]]])
        p = project_columns_to_simplex(y)
        for j in range(y.shape[1]):
            best_d, best_x = np.inf, None
            for r in range(1, 5):
                for support in itertools.combinations(range(4), r):
                    idx = list(support)
                    x = np.zeros(4)
                    x[idx] = y[idx, j] - (y[idx, j].sum() - 1.0) / r
                    d = ((x - y[:, j]) ** 2).sum()
                    if (x >= 0).all() and d < best_d:
                        best_d, best_x = d, x
            assert np.allclose(p[:, j], best_x, rtol=0.0, atol=1e-12)


def _single_user_statistical_instance(seed, n=64, q=4):
    """Single-antenna single-user cascade with a consistent precoder state."""
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.05, 0.95)
    theta = np.arcsin(delta)
    _, c1 = _deterministic_cascade(8.0, theta, n)
    cascades = c1[None, :, None]                         # (K=1, N, M=1)
    h_bu = np.zeros((1, 1), dtype=complex)
    w = np.array([[np.sqrt(0.5)]], dtype=complex)        # real positive beam
    partition = phase_partition_grouping(delta, n, q)
    grouped = combine_cascade(partition, c1)
    v = np.exp(1j * np.angle(grouped))                   # aligned reflection
    h = bf.effective_channels(v, combine_cascade(partition, cascades[0])[None], h_bu)
    aux = bf.update_auxiliaries(*bf.rx_stats(h, w, 1e-4), np.ones(1))
    return cascades, h_bu, w, v, aux, partition, delta


def _random_statistical_instance(rng, k, n, m, q, weights=None):
    """Random (K, N, M) cascades, direct links and beams, random phases, and their auxiliaries."""
    cascades = (rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))) * 0.1
    h_bu = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) * 0.05
    w = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) * 0.3
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
    h = bf.effective_channels(v, np.zeros((k, q, m), dtype=complex), h_bu)
    aux = bf.update_auxiliaries(*bf.rx_stats(h, w, 1e-2), np.ones(k) if weights is None else weights)
    return cascades, h_bu, w, v, aux


class TestRelaxedProgram:
    def test_refines_phase_partition_single_user(self):
        for seed in range(50):
            cascades, h_bu, w, v, aux, partition, _ = _single_user_statistical_instance(seed)
            result = relaxed_qp_grouping(cascades, h_bu, w, v, aux, 4)
            val_res = grouping_objective(result, cascades, h_bu, w, v, aux)
            val_ref = grouping_objective(partition, cascades, h_bu, w, v, aux)
            assert val_res >= val_ref - 1e-9 * abs(val_ref)

    def test_never_worse_than_adjacent(self):
        rng = np.random.default_rng(11)
        n, q = 32, 3
        for seed in range(10):
            cascades, h_bu, w, v, aux = _random_statistical_instance(rng, 2, n, 2, q)
            result = relaxed_qp_grouping(cascades, h_bu, w, v, aux, q)
            assert np.bincount(result.assignment - 1, minlength=q).min() >= 1
            val_res = grouping_objective(result, cascades, h_bu, w, v, aux)
            val_adj = grouping_objective(adjacent_grouping(n, q), cascades, h_bu, w, v, aux)
            assert val_res >= val_adj - 1e-9 * max(1.0, abs(val_adj))

    def test_extra_starts_left_untouched(self):
        # the winning start comes back as a copy carrying this run's flag;
        # the caller's own object keeps its converged = False
        q = 3
        cascades, h_bu, w, v, aux = _random_statistical_instance(np.random.default_rng(11), 2, 32,
                                                                 2, q)
        best = relaxed_qp_grouping(cascades, h_bu, w, v, aux, q)
        start = GroupingMatrix(assignment=best.assignment, num_groups=q, converged=False)
        result = relaxed_qp_grouping(cascades, h_bu, w, v, aux, q, extra_starts=(start,))
        assert result.converged and np.array_equal(result.assignment, start.assignment)
        assert start.converged is False

    def test_objective_uses_the_auxiliaries_weights(self):
        # alpha = sqrt(weights (1 + varsigma)) of the aux's own weights: on this
        # K = 3, N = 16, Q = 4 scene all-ones weights would read -11.976
        k, n, q = 3, 16, 4
        weights = np.array([3.0, 0.5, 1.0])
        cascades, h_bu, w, v, aux = _random_statistical_instance(np.random.default_rng(25), k, n,
                                                                 2, q, weights)
        g = adjacent_grouping(n, q)
        value = grouping_objective(g, cascades, h_bu, w, v, aux)
        # oracle: the same objective in matrix form
        rows = np.einsum("n,knm,mj->kj", np.conj(v) @ g.matrix(), cascades, w)
        u = rows + np.conj(h_bu) @ w
        alpha = np.sqrt(weights * (1.0 + aux.varsigma))
        expected = (2.0 * alpha * np.real(np.conj(aux.xi) * np.diagonal(rows))).sum() \
            - (np.abs(aux.xi) ** 2 * (np.abs(u) ** 2).sum(axis=1)).sum()
        assert value == pytest.approx(expected, rel=1e-12)
        assert round(value, 3) == -9.520
        ones = bf.FPAuxiliaries(varsigma=aux.varsigma, xi=aux.xi, weights=np.ones(k))
        assert round(grouping_objective(g, cascades, h_bu, w, v, ones), 3) == -11.976

    def test_projected_gradient_is_monotone_at_fixed_direction(self):
        cascades, h_bu, w, v, aux, partition, _ = _single_user_statistical_instance(99)
        alpha = aux.two_alpha / 2.0
        proj = np.stack([cascades[0] @ w])
        d_rows = np.stack([np.conj(h_bu[0]) @ w])
        g = partition.matrix()
        gamma = g / np.linalg.norm(g, axis=0, keepdims=True)
        step = 1.0
        prev, _ = grp._relaxed_objective_and_grad(g, proj, d_rows, alpha, aux.xi, v, gamma, 1.0)
        for _ in range(25):
            val, grad = grp._relaxed_objective_and_grad(g, proj, d_rows, alpha, aux.xi, v, gamma, 1.0)
            accepted = False
            for _ in range(40):
                g_new = project_columns_to_simplex(g + step * grad)
                val_new, _ = grp._relaxed_objective_and_grad(g_new, proj, d_rows, alpha, aux.xi, v, gamma, 1.0)
                if val_new >= val:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            assert val_new >= prev - 1e-12 * max(1.0, abs(prev))
            prev = val_new
            g = g_new
            step *= 1.5

    def test_rounded_output_is_valid(self):
        g_relaxed = np.array([[0.6, 0.55, 0.52, 0.5],
                              [0.4, 0.45, 0.48, 0.5],
                              [0.0, 0.0, 0.0, 0.0]])
        assignment = grp._round_with_margin_repair(g_relaxed, 3)
        g = GroupingMatrix(assignment=assignment, num_groups=3)
        assert np.bincount(g.assignment - 1, minlength=3).min() >= 1
        # empty groups are filled by the smallest-margin columns, label order:
        # column 3 (margin 0) fills group 2, column 2 (margin 0.04) group 3
        assert np.array_equal(assignment, [1, 1, 3, 2])
