import dataclasses
import json
import re

import numpy as np
import pytest

from iegirs.channel import (RicianLink, build_scenario, cascade_coefficients, cascaded_channel,
                            near_square_factors, path_loss_amplitude, path_loss_db,
                            rician_from_normals, sample_rician, upa_response)
from iegirs.config import _LAYOUT, ScenarioConfig
from iegirs.mathkit import array_response
import oracles


class TestPathLoss:
    def test_reference_values(self):
        assert path_loss_db("los", 1.0) == 42.0
        assert path_loss_db("nlos", 1.0) == 40.9
        assert abs(path_loss_db("los", 100.0) - 86.0) <= 1e-12

    def test_amplitude_factor(self):
        d = 37.0
        pl = path_loss_db("nlos", d)
        assert abs(path_loss_amplitude("nlos", d) - 10 ** (-pl / 20)) <= 1e-18

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            path_loss_db("los", 0.0)
        with pytest.raises(ValueError):
            path_loss_db("los", -3.0)
        with pytest.raises(ValueError):
            path_loss_db("urban", 10.0)


def _phase_ramp_los(shape, rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=shape))


class TestSampleRician:
    def test_los_limit(self):
        rng = np.random.default_rng(0)
        los = _phase_ramp_los((3, 5), rng)
        link = RicianLink(delta=2.0, kappa=1e12, los=los)
        h = sample_rician(link, np.random.default_rng(1))
        assert np.max(np.abs(h - 2.0 * los)) / 2.0 <= 1e-4

    def test_rayleigh_variance(self):
        # kappa = 0: per-entry variance of h/delta is 1
        rng = np.random.default_rng(2)
        link = RicianLink(delta=0.5, kappa=0.0, los=np.ones(10 ** 5))
        h = sample_rician(link, rng)
        assert abs(np.mean(np.abs(h / 0.5) ** 2) - 1.0) <= 0.02

    def test_mean_at_unit_rician_factor(self):
        # kappa = 1, delta = 1: E[h] = sqrt(1/2) * LoS entrywise
        rng = np.random.default_rng(3)
        base = _phase_ramp_los((2, 2), np.random.default_rng(9))
        los = np.broadcast_to(base, (10 ** 5, 2, 2)).copy()
        h = sample_rician(RicianLink(delta=1.0, kappa=1.0, los=los), rng)
        err = np.abs(h.mean(axis=0) - np.sqrt(0.5) * base)
        assert np.max(err) / np.sqrt(0.5) <= 0.02

    def test_nlos_energy(self):
        # E ||H_nlos||_F^2 / (M N) = 1 over many draws
        rng = np.random.default_rng(4)
        link = RicianLink(delta=1.0, kappa=0.0, los=np.ones((10 ** 4, 4, 8)))
        h = sample_rician(link, rng)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.02

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            RicianLink(delta=-1.0, kappa=0.0, los=np.ones(2))
        with pytest.raises(ValueError):
            RicianLink(delta=1.0, kappa=-0.1, los=np.ones(2))

    @pytest.mark.parametrize("field, value", [("delta", np.nan), ("delta", np.inf),
                                              ("kappa", np.nan), ("kappa", np.inf)])
    def test_non_finite_link_refused(self, field, value):
        # before, these built a link whose statistical part and draws were all NaN
        kw = {"delta": 1.0, "kappa": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
            RicianLink(los=np.ones(2), **kw)

    def test_stat_component_formed_once(self):
        # the draw and build_scenario read one array, not two formed in turn
        link = RicianLink(delta=0.7, kappa=2.0, los=_phase_ramp_los((3, 8), np.random.default_rng(5)))
        stat = link.stat_component
        sample_rician(link, np.random.default_rng(6))
        assert link.stat_component is stat
        assert stat.tobytes() == (0.7 * np.sqrt(2.0 / 3.0) * link.los).tobytes()


def _assert_one_draw_map(shape, seed):
    # one (2,) + shape draw, read as the real parts and then the imaginary
    # parts: the two-draw form bit for bit, and the stream ends where it does
    los = _phase_ramp_los(shape, np.random.default_rng(seed))
    link = RicianLink(delta=0.7, kappa=2.0, los=los)
    rng, ref_rng = np.random.default_rng(7 + seed), np.random.default_rng(7 + seed)
    h = sample_rician(link, rng)
    ref = link.stat_component + link.nlos_scale * oracles.complex_normal(shape, ref_rng)
    assert np.shape(h) == np.shape(ref) and h.dtype == ref.dtype
    assert h.tobytes() == ref.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()
    z = np.random.default_rng(7 + seed).standard_normal((2,) + shape)
    assert rician_from_normals(link.stat_component, link.nlos_scale, z).tobytes() == h.tobytes()


class TestComplexNormal:
    @pytest.mark.parametrize("shape", [(), (7,), (4, 1024), (2048,)])
    def test_matches_two_draw_reference(self, shape):
        for seed in range(6):
            _assert_one_draw_map(shape, seed)

    def test_sample_rician_is_the_map_of_one_draw(self):
        _assert_one_draw_map((3, 5), 0)


class TestCascadeDecompose:
    def test_pure_rayleigh(self):
        assert cascade_coefficients(0.0, 0.0) == (0.0, 1.0, 0.0, 0.0)

    def test_unit_factors(self):
        assert np.allclose(cascade_coefficients(1.0, 1.0), (0.5, 0.5, 0.5, 0.5))

    def test_coefficients_partition_unity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            kbi, kiu = rng.uniform(0, 50, size=2)
            coeffs = cascade_coefficients(kbi, kiu)
            assert abs(sum(c ** 2 for c in coeffs) - 1.0) <= 1e-12

    def test_deterministic_component(self):
        # the product of the two links' deterministic parts is the a_bar term
        kbi, kiu, dbi, diu = 2.0, 5.0, 0.3, 0.7
        tb, tu, n = 0.4, -0.9, 16
        link_bi = RicianLink(delta=dbi, kappa=kbi, los=array_response(n, tb))
        link_iu = RicianLink(delta=diu, kappa=kiu, los=array_response(n, tu))
        c1 = np.conj(link_iu.stat_component) * np.conj(link_bi.stat_component)
        a_bar = cascade_coefficients(kbi, kiu)[0]
        expected = a_bar * dbi * diu * np.conj(array_response(n, tu)) * np.conj(array_response(n, tb))
        assert np.allclose(c1, expected)


def _assert_same_cascade(got, ref, stepped_only=False):
    # bit for bit: each part's values and the signs of its zeros, and the strides;
    # stepped_only skips length-1 axes, never stepped (a stack slab's is N*16 at M = 1)
    assert got.shape == ref.shape
    assert [s for s, d in zip(got.strides, got.shape) if d > 1 or not stepped_only] == \
        [s for s, d in zip(ref.strides, ref.shape) if d > 1 or not stepped_only]
    for part in ("real", "imag"):
        g, r = getattr(got, part), getattr(ref, part)
        assert np.array_equal(g, r) and np.array_equal(np.signbit(g), np.signbit(r))


class TestCascadedChannel:
    def test_all_ones(self):
        c = cascaded_channel(np.ones(4), np.ones((1, 4)))
        assert np.allclose(c[:, 0], np.ones(4))

    def test_zero_user_link(self):
        rng = np.random.default_rng(6)
        h_bi = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        c = cascaded_channel(np.zeros(8), h_bi)
        assert np.all(c == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cascaded_channel(np.ones(4), np.ones((2, 5)))

    @pytest.mark.parametrize("links", ["drawn", "signed_zero_user_link"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 17, 1024, 10000])
    def test_equals_two_conjugate_formula(self, n, m, links):
        # full rows, uirs_q's Q head rows and N - Q frozen tail rows, and the
        # statistical stack's per-user slabs. A user link of mixed-sign zeros (a
        # statistical component at kappa = 0) fails conj(h_iu_k[:, None] * h_bi.T),
        # which flips zero imaginary parts' signs; N = M = 1 fails a product taken
        # in place, which numpy rounds without the fused multiply-add on one element
        rng = np.random.default_rng(n * 10 + m)
        k_users, q = 3, min(4, n)
        h_iu = rng.standard_normal((k_users, n)) + 1j * rng.standard_normal((k_users, n))
        h_bi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if links == "signed_zero_user_link":
            h_iu *= 0.0
        for rows in (slice(None), slice(q), slice(q, n)):
            _assert_same_cascade(cascaded_channel(h_iu[0, rows], h_bi[:, rows]),
                                 oracles.cascade(h_iu[0, rows], h_bi[:, rows]))
        stack = np.empty((k_users, m, n), dtype=complex).transpose(0, 2, 1)
        for k in range(k_users):
            slab = stack[k]
            assert cascaded_channel(h_iu[k], h_bi, out=slab) is slab
            _assert_same_cascade(slab, oracles.cascade(h_iu[k], h_bi), stepped_only=True)

    def test_channel_set_rows_and_stack(self):
        ch = build_scenario(ScenarioConfig(N=17, Q=4, kappa_iu=0.0), np.random.default_rng(4))
        for k in range(ch.num_users):
            for rows in (slice(None), slice(4), slice(4, 17)):
                _assert_same_cascade(ch.cascade(k, rows),
                                     oracles.cascade(ch.h_iu[k, rows], ch.h_bi[:, rows]))
        stack = ch.stat_cascades()
        ref = oracles.stat_stack(ch)
        _assert_same_cascade(stack, ref)
        # at kappa_iu = 0 the statistical cascades are zeros of both signs
        assert not ref.any() and np.signbit(ref.imag).any() and not np.signbit(ref.imag).all()


class TestGeometryHelpers:
    def test_near_square_factors(self):
        assert near_square_factors(1024) == (32, 32)
        assert near_square_factors(10000) == (100, 100)
        assert near_square_factors(12) == (3, 4)
        assert near_square_factors(7) == (1, 7)

    def test_upa_collapses_to_ula(self):
        u = 0.37
        assert np.allclose(upa_response(1, 8, 0.0, u), array_response(8, np.arcsin(u)))


SCENE_ARRAYS = ("h_bi", "h_iu", "h_bu", "h_bi_stat", "h_iu_stat", "h_bu_stat")


class TestBuildScenario:
    @pytest.mark.parametrize("kw", [
        dict(), dict(K=1), dict(M=1), dict(K=1, M=1, N=37), dict(N=37), dict(kappa_bi=0.0),
        dict(kappa_iu=0.0), dict(kappa_bu=0.0), dict(scenario="unobscured"), dict(N=1)],
        ids=["default", "K=1", "M=1", "K=M=1_N=37", "N=37", "kappa_bi=0", "kappa_iu=0",
             "kappa_bu=0", "unobscured", "N=1"])
    def test_equals_reference_bytes(self, kw):
        # N = 37 is prime, so its UPA is 1 x 37; kappa = 0 zeroes a statistical part
        cfg = ScenarioConfig(**{"N": 64, "Q": 1, "M": 3, "K": 2, "seed": 4, **kw})
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got, ref = build_scenario(cfg, rng), oracles.build_scenario(cfg, ref_rng)
        for name in SCENE_ARRAYS:
            a, b = getattr(got, name), getattr(ref, name)
            assert (a.shape, a.dtype, a.strides) == (b.shape, b.dtype, b.strides), name
            assert a.tobytes() == b.tobytes(), name
        assert got.noise_power == ref.noise_power
        assert rng.standard_normal() == ref_rng.standard_normal()   # the same draws, in order

    # user_radius = 0 puts every user at user_center, so each distance is
    # known; at kappa = 1 every entry of a *_stat array has modulus delta/sqrt(2)
    def test_obscured_direct_link_uses_nlos(self):
        cfg = ScenarioConfig(N=64, Q=4, M=2, K=2, scenario="obscured", seed=0, user_radius=0.0)
        ch = build_scenario(cfg, np.random.default_rng(0))
        d = np.linalg.norm(np.subtract(cfg.user_center, cfg.bs_pos))
        mods = np.abs(ch.h_bu_stat)
        assert np.allclose(mods, path_loss_amplitude("nlos", d) * np.sqrt(0.5), rtol=1e-12, atol=0)
        assert (mods < path_loss_amplitude("los", d) * np.sqrt(0.5)).all()

    def test_unobscured_direct_link_uses_los(self):
        cfg = ScenarioConfig(N=64, Q=4, M=2, K=2, scenario="unobscured", seed=0, user_radius=0.0)
        ch = build_scenario(cfg, np.random.default_rng(0))
        d = np.linalg.norm(np.subtract(cfg.user_center, cfg.bs_pos))
        assert np.allclose(np.abs(ch.h_bu_stat), path_loss_amplitude("los", d) * np.sqrt(0.5),
                           rtol=1e-12, atol=0)

    def test_default_rician_factors(self):
        cfg = ScenarioConfig(N=16, Q=2, M=2, K=1)
        assert (cfg.kappa_bi, cfg.kappa_iu, cfg.kappa_bu) == (1.0, 1.0, 1.0)

    def test_same_seed_bitwise_identical(self):
        cfg = ScenarioConfig(N=64, Q=4, M=2, K=3, seed=5)
        a = build_scenario(cfg, np.random.default_rng(5))
        b = build_scenario(cfg, np.random.default_rng(5))
        for name in ("h_bi", "h_iu", "h_bu", "h_bi_stat", "h_iu_stat", "h_bu_stat"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_statistical_twin_structure(self):
        cfg = ScenarioConfig(N=36, Q=4, M=2, K=2, seed=1, user_radius=0.0)
        ch = build_scenario(cfg, np.random.default_rng(1))
        # kappa = 1: deterministic component has constant modulus delta/sqrt(2)
        d = np.linalg.norm(np.subtract(cfg.user_center, cfg.irs_pos))
        assert np.allclose(np.abs(ch.h_iu_stat), path_loss_amplitude("los", d) * np.sqrt(0.5),
                           rtol=1e-12, atol=0)
        assert np.linalg.matrix_rank(ch.h_bi_stat, tol=1e-12 * np.abs(ch.h_bi_stat).max()) == 1

    def test_coincident_geometry_rejected(self):
        cfg = ScenarioConfig(N=16, Q=2, M=2, K=1, irs_pos=(300.0, 6.0, 0.0),
                             user_center=(300.0, 6.0, 0.0), user_radius=0.0)
        with pytest.raises(ValueError):
            build_scenario(cfg, np.random.default_rng(0))


NON_DEFAULT = ScenarioConfig(N=256, Q=8, M=3, K=3, bs_pos=(1.0, 2.0, 3.0), user_radius=4.0,
                             kappa_bi=2.0, kappa_iu=3.0, kappa_bu=0.5, scenario="unobscured",
                             weights=(3.0, 0.5, 1.0), trials=7, seed=42, schemes=("ieg", "no_irs"))


def _raw(field, value):
    """The from_dict mapping that sets one field, in the section _LAYOUT places it."""
    for section, keys in _LAYOUT.items():
        if isinstance(keys, dict) and field in keys.values():
            return {section: {key: value for key, f in keys.items() if f == field}}
    return {field: value}


class TestScenarioConfig:
    def test_yaml_roundtrip(self, tmp_path):
        import yaml
        cfg = ScenarioConfig(N=256, Q=8, M=4, K=3, scenario="unobscured", trials=7, seed=42,
                             power_dbm=20.0, noise_dbm=-90.0)
        path = tmp_path / "scene.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        loaded = ScenarioConfig.from_yaml(path)
        assert loaded == cfg

    def test_dict_roundtrip(self):
        assert ScenarioConfig.from_dict(NON_DEFAULT.to_dict()) == NON_DEFAULT

    @pytest.mark.parametrize("cfg, expected", [
        (ScenarioConfig(), {
            "system": {"M": 4, "K": 4, "N": 1024, "Q": 4},
            "geometry": {"bs": [0.0, 6.0, 16.0], "irs": [300.0, 0.0, 8.0],
                         "user_center": [300.0, 6.0, 0.0], "user_radius": 2.0},
            "kappas": {"bi": 1.0, "iu": 1.0, "bu": 1.0},
            "power_dbm": 10.0, "noise_dbm": -100.0, "scenario": "obscured",
            "weights": [1.0, 1.0, 1.0, 1.0], "trials": 20, "seed": 1,
            "schemes": ["ieg", "aeg", "uirs_q", "random_rcv", "no_irs"]}),
        (NON_DEFAULT, {
            "system": {"M": 3, "K": 3, "N": 256, "Q": 8},
            "geometry": {"bs": [1.0, 2.0, 3.0], "irs": [300.0, 0.0, 8.0],
                         "user_center": [300.0, 6.0, 0.0], "user_radius": 4.0},
            "kappas": {"bi": 2.0, "iu": 3.0, "bu": 0.5},
            "power_dbm": 10.0, "noise_dbm": -100.0, "scenario": "unobscured",
            "weights": [3.0, 0.5, 1.0], "trials": 7, "seed": 42, "schemes": ["ieg", "no_irs"]}),
    ], ids=["defaults", "non-default"])
    def test_to_dict_layout_pinned(self, cfg, expected):
        # == tells lists from tuples; the JSON text also pins key order and int vs float
        assert cfg.to_dict() == expected
        assert json.dumps(cfg.to_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("raw, message", [
        ({"system": {"q": 8}}, r"unknown system keys \['q'\]"),
        ({"kapas": {"bi": 5}}, r"unknown top-level keys \['kapas'\]"),
        ({"power": 30}, r"unknown top-level keys \['power'\]"),
        ({"geometry": {"irs_pos": [1.0, 0.0, 8.0]}}, r"unknown geometry keys \['irs_pos'\]"),
        ({"kappas": {"bi": 2.0, "ub": 2.0}}, r"unknown kappas keys \['ub'\]"),
    ], ids=["system", "top-level-section", "top-level", "geometry", "kappas"])
    def test_unknown_keys_rejected(self, raw, message):
        # a misspelt key would otherwise leave its default in place without a word
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("raw, message", [
        ({"schemes": "aeg"}, r"^schemes must be a list, got 'aeg'"),
        ({"weights": 1.0}, r"^weights must be a list, got 1.0"),
        ({"geometry": {"bs": 5}}, r"^bs_pos must be a list, got 5"),
        ({"schemes": {"aeg": 1}}, r"^schemes must be a list"),
        ({"system": 3}, r"^config section system must be a mapping of keys, got 3"),
        ({"kappas": []}, r"^config section kappas must be a mapping of keys"),
        ({"geometry": {"bs": [1.0, 2.0]}}, r"^bs_pos must list 3 finite coordinates"),
        ({"geometry": {"user_center": [300.0, 6.0, 0.0, 1.0]}},
         r"^user_center must list 3 finite coordinates"),
        ({"geometry": {"bs": [float("nan"), 6.0, 16.0]}}, r"^bs_pos must list 3 finite coordinates"),
        ({"weights": [1.0, "1", 1.0, 1.0]}, r"^weights must list real numbers"),
        ({"geometry": {"irs": [300.0, True, 8.0]}}, r"^irs_pos must list real numbers"),
    ], ids=["scalar-schemes", "scalar-weights", "scalar-position", "mapping-schemes",
            "scalar-section", "list-section", "two-entry-position", "four-entry-position",
            "nan-coordinate", "string-weight", "bool-coordinate"])
    def test_shapes_rejected(self, raw, message):
        # unchecked, schemes "aeg" was split into characters, a scalar list
        # field or section died with a bare TypeError, and a 2- or 4-entry
        # position passed the config and died in build_scenario's broadcast,
        # and a nan coordinate died in the solver's auxiliary update
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_dict(raw)

    def test_top_level_list_rejected(self, tmp_path):
        # unchecked, a YAML file holding a list died with an AttributeError
        path = tmp_path / "scene.yaml"
        path.write_text("- system: {N: 16}\n")
        with pytest.raises(ValueError, match=r"^a config must be a mapping of keys"):
            ScenarioConfig.from_yaml(path)

    def test_empty_sections_and_file_read_as_defaults(self, tmp_path):
        path = tmp_path / "scene.yaml"
        path.write_text("")
        assert ScenarioConfig.from_yaml(path) == ScenarioConfig()
        path.write_text("system:\ngeometry:\n")
        assert ScenarioConfig.from_yaml(path) == ScenarioConfig()

    def test_list_fields_stored_as_tuples(self):
        cfg = ScenarioConfig(K=3, bs_pos=[1, np.int64(2), 3.5], irs_pos=np.array([300.0, 0.0, 8.0]),
                             weights=[1, 2, 0.5], schemes=["ieg", "no_irs"])
        assert (cfg.bs_pos, cfg.irs_pos, cfg.weights, cfg.schemes) == \
            ((1.0, 2.0, 3.5), (300.0, 0.0, 8.0), (1.0, 2.0, 0.5), ("ieg", "no_irs"))
        assert {type(v) for v in cfg.bs_pos + cfg.irs_pos + cfg.weights} == {float}
        with pytest.raises(ValueError, match=r"^schemes must be a list, got 'aeg'"):
            ScenarioConfig(schemes="aeg")
        with pytest.raises(ValueError, match=r"^user_center must list 3 finite coordinates"):
            ScenarioConfig(user_center=(1.0, 2.0))

    def test_whole_number_sizes_stored_as_ints(self):
        cfg = ScenarioConfig.from_dict({"system": {"M": 2.0, "K": np.int64(2), "N": 64.0, "Q": 4.0},
                                        "trials": 3.0, "seed": 7.0})
        assert [(type(v), v) for v in (cfg.M, cfg.K, cfg.N, cfg.Q, cfg.trials, cfg.seed)] == \
            [(int, 2), (int, 2), (int, 64), (int, 4), (int, 3), (int, 7)]
        assert cfg == ScenarioConfig(M=2, K=2, N=64, Q=4, trials=3, seed=7)
        assert type(ScenarioConfig(seed=np.float64(3.0)).seed) is int

    @pytest.mark.parametrize("key, value", [("N", 1024.5), ("Q", 2.5), ("M", float("nan")),
                                            ("K", "2"), ("trials", 2.5), ("trials", True),
                                            ("seed", 2.5), ("seed", "2"), ("seed", True),
                                            ("seed", float("inf"))])
    def test_fractional_sizes_rejected(self, key, value):
        # unchecked, N = 1024.5 died in near_square_factors and Q = 2.5 in a
        # numpy cast, and seed = 2.5 ran silently as seed 2
        with pytest.raises(ValueError, match=f"{key} must be a whole number"):
            ScenarioConfig(**{key: value})
        with pytest.raises(ValueError, match=f"{key} must be a whole number"):
            ScenarioConfig.from_dict(_raw(key, value))

    def test_real_fields_stored_as_floats(self):
        cfg = ScenarioConfig(user_radius=3, kappa_bi=np.int64(5), kappa_iu=np.float32(0.5),
                             kappa_bu=2, power_dbm=10, noise_dbm=-90)
        loaded = ScenarioConfig.from_dict({"geometry": {"user_radius": 3},
                                           "kappas": {"bi": np.int64(5), "iu": 0.5, "bu": 2},
                                           "power_dbm": 10, "noise_dbm": -90})
        for c in (cfg, loaded):
            values = [getattr(c, key) for key in ("user_radius", "kappa_bi", "kappa_iu",
                                                  "kappa_bu", "power_dbm", "noise_dbm")]
            assert [type(v) for v in values] == [float] * 6
            assert values == [3.0, 5.0, 0.5, 2.0, 10.0, -90.0]
        assert cfg == loaded

    @pytest.mark.parametrize("key", ["user_radius", "kappa_bi", "kappa_iu", "kappa_bu",
                                     "power_dbm", "noise_dbm"])
    @pytest.mark.parametrize("value", ["10", float("nan"), float("inf"), True, None],
                             ids=["str", "nan", "inf", "bool", "none"])
    def test_non_real_fields_rejected(self, key, value):
        # unchecked, power_dbm = "10" died later with a TypeError in
        # power_watts, and kappa_bi = "5" was stored as the string
        with pytest.raises(ValueError, match=f"^{key} must be a finite real number"):
            ScenarioConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{key} must be a finite real number"):
            ScenarioConfig.from_dict(_raw(key, value))

    @pytest.mark.parametrize("key, value", [("user_radius", -2.0), ("seed", -1), ("kappa_bi", -1.0),
                                            ("kappa_iu", -0.5), ("kappa_bu", -1e-12)])
    def test_negative_fields_rejected(self, key, value):
        # unchecked, user_radius = -2 mirrored the users through the centre
        # without a word, seed = -1 died in SeedSequence and kappa_bi = -1 in RicianLink
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got {value!r}"):
            ScenarioConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{key} must be >= 0"):
            ScenarioConfig.from_dict(_raw(key, value))

    @pytest.mark.parametrize("key", ["power_dbm", "noise_dbm"])
    def test_powers_outside_float_watts_rejected(self, key):
        # power_dbm = 4000 died with an OverflowError in power_watts at the first solve,
        # and -4000 (0 W) reached "must be positive" only at the first solve or trial
        for value in (4000, -4000, 3113, -3207):
            message = f"^{key} {float(value)!r} in watts must be finite and positive, got "
            with pytest.raises(ValueError, match=message):
                ScenarioConfig(**{key: value})
            with pytest.raises(ValueError, match=message):
                ScenarioConfig.from_dict({key: value})
        for value in (3112, -3206):
            watts = getattr(ScenarioConfig(**{key: value}), key.replace("dbm", "watts"))
            assert 0 < watts < np.inf

    @pytest.mark.parametrize("key", ["M", "K", "trials"])
    def test_counts_below_one_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
            ScenarioConfig(**{key: 0})
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
            ScenarioConfig.from_dict(_raw(key, 0))

    def test_zero_radius_seed_and_kappas_accepted(self):
        cfg = ScenarioConfig(user_radius=0, seed=0, kappa_bi=0, kappa_iu=0, kappa_bu=0)
        assert (cfg.user_radius, cfg.seed, cfg.kappa_bi, cfg.kappa_iu, cfg.kappa_bu) \
            == (0.0, 0, 0.0, 0.0, 0.0)

    def test_budget_ordering_enforced(self):
        with pytest.raises(ValueError):
            ScenarioConfig(N=4, Q=8)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="beam_hopping"):
            ScenarioConfig(schemes=("ieg", "beam_hopping"))
        with pytest.raises(ValueError, match="beam_hopping"):
            ScenarioConfig.from_dict({"schemes": ["ieg", "beam_hopping"]})

    @pytest.mark.parametrize("schemes, repeated", [(("aeg", "aeg", "no_irs"), "['aeg']"),
                                                   (("uirs_q", "ieg", "uirs_q", "ieg", "ieg"),
                                                    "['uirs_q', 'ieg']")])
    def test_repeated_scheme_rejected(self, schemes, repeated):
        # a repeated aeg counted its copied rows twice in the aggregate, and
        # a repeated uirs_q wrote two rows under one (scheme, trial) key
        with pytest.raises(ValueError, match=re.escape(f"schemes {repeated} repeat")):
            ScenarioConfig(N=16, Q=4, trials=3, seed=7, schemes=schemes)
        with pytest.raises(ValueError, match=re.escape(f"schemes {repeated} repeat")):
            ScenarioConfig.from_dict({"system": {"N": 16}, "schemes": list(schemes)})

    def test_layout_places_every_field_once(self):
        placed = [field for entry in _LAYOUT.values()
                  for field in (entry.values() if isinstance(entry, dict) else [entry])]
        assert sorted(placed) == sorted(f.name for f in dataclasses.fields(ScenarioConfig))

    def test_scenario_enum(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="indoor")

    def test_unit_conversions(self):
        cfg = ScenarioConfig(power_dbm=10.0, noise_dbm=-100.0)
        assert abs(cfg.power_watts - 0.01) <= 1e-18
        assert abs(cfg.noise_watts - 1e-13) <= 1e-28

    def test_weights_default_and_validation(self):
        assert ScenarioConfig(K=3).weights == (1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(K=3, weights=(1.0, 2.0))

    def test_replace_lets_all_ones_weights_follow_k(self):
        # the default weights were materialized at K = 4 and once refused K = 2
        assert ScenarioConfig().replace(K=2).weights == (1.0, 1.0)
        assert ScenarioConfig(K=2, weights=[1, 1]).replace(K=3).weights == (1.0, 1.0, 1.0)
        assert ScenarioConfig(K=2).replace(K=3, weights=(1.0, 2.0, 3.0)).weights == (1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="weights length must equal K"):
            ScenarioConfig(K=2, weights=(1.0, 2.0)).replace(K=3)

    @pytest.mark.parametrize("field, value", [("N", 2.5), ("K", 2), ("weights", (1.0,) * 4)],
                             ids=["N", "K", "weights"])
    def test_fields_frozen_after_construction(self, field, value):
        # an assignment after construction would skip every check
        cfg = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == ScenarioConfig()

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan"), 1e200, 1e308])
    def test_bad_weights_rejected_at_construction(self, bad):
        # caught here, not as a failed precoder update deep inside a solve
        # (1e200 made its power NaN, 1e308 overflowed |xi|^2)
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            ScenarioConfig(weights=(bad, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            ScenarioConfig.from_dict({"weights": [1.0, 1.0, bad, 1.0]})
