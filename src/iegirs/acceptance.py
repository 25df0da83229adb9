"""Acceptance suite: every shipped closed form checked against an
independent oracle (series evaluation, brute-force search, or Monte Carlo),
plus end-to-end trend and determinism gates.

Each criterion function returns (passed, detail). run() executes a selection
and prints one PASS/FAIL line per criterion; the CLI `validate` subcommand
and tests/test_acceptance.py both drive this module.
"""

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asym
from . import beamforming as bf
from . import harness
from .channel import build_scenario
from .config import ScenarioConfig
from .mathkit import group_shrink_factor, laguerre_half


# ---------------------------------------------------------------------------
# independent special-function oracle

def _bessel_i_series(nu, z):
    """Modified Bessel I_nu by direct power series (integer nu, moderate z)."""
    half = z / 2.0
    term = half ** nu / math.factorial(nu)
    total = 0.0
    k = 0
    while True:
        total += term
        k += 1
        term *= half * half / (k * (k + nu))
        if term < 1e-19 * max(total, 1.0) or k > 500:
            return total


def laguerre_oracle(x):
    """L_{1/2}(-x) by the series route for small x, high-precision otherwise."""
    if x <= 30.0:
        return math.exp(-x / 2.0) * ((1.0 + x) * _bessel_i_series(0, x / 2.0)
                                     + x * _bessel_i_series(1, x / 2.0))
    import mpmath as mp
    with mp.workdps(40):
        xm = mp.mpf(x)
        val = mp.e ** (-xm / 2) * ((1 + xm) * mp.besseli(0, xm / 2) + xm * mp.besseli(1, xm / 2))
        return float(val)


def c01_special_function_oracle():
    """Envelope-mean scale factor matches the independent series oracle."""
    if laguerre_half(0.0) != 1.0:
        return False, "value at 0 is not exactly 1"
    worst = 0.0
    for x in (0.0, 0.1, 1.0, 10.0, 1e4):
        ref = laguerre_oracle(x)
        err = abs(laguerre_half(x) - ref) / max(ref, 1e-300)
        worst = max(worst, err)
    return worst <= 1e-8, f"worst relative error {worst:.2e} on x in {{0, 0.1, 1, 10, 1e4}}"


def c02_ungrouped_gain_monte_carlo():
    """Simulated phase-aligned gain of an ungrouped surface vs closed form."""
    q, trials = 4096, 100
    rng = np.random.default_rng(20301)
    details = []
    ok = True
    for kappa in (0.0, 1.0, 10.0):
        inputs = asym.AsymptoticInputs(N=q, Q=q, kappa_bi=kappa, kappa_iu=kappa)
        sim = asym.simulate_ungrouped_gain(q, inputs, trials, rng)
        closed = asym.uirs_gain(q, inputs)
        rel = abs(sim - closed) / closed
        ok &= rel <= 0.05
        details.append(f"kappa={kappa:g}: rel err {rel:.3%}")
    return ok, "; ".join(details)


def c03_grouped_cascade_law():
    """Monte Carlo law of the combined grouped cascade (arbitrates the
    shrink-factor placement inside the grouped-gain formula)."""
    inputs = asym.AsymptoticInputs(N=4 * 2048, Q=4, kappa_bi=10.0, kappa_iu=10.0)
    rng = np.random.default_rng(20302)
    report = asym.validate_combined_cascade_monte_carlo(inputs, trials=2000, rng=rng)
    return report.passed, str(report)


def c04_scaling_law_slopes():
    """log-log slope of the simulated grouped gain vs N: 2 for Q=4, 1 for Q=1."""
    ns = np.array([256, 1024, 4096, 16384])
    trials = 50
    details = []
    ok = True
    for q, target in ((4, 2.0), (1, 1.0)):
        rng = np.random.default_rng(20304 + q)
        gains = [asym.simulate_grouped_gain(
            asym.AsymptoticInputs(N=int(n), Q=q, kappa_bi=10.0, kappa_iu=10.0), trials, rng)
            for n in ns]
        slope = np.polyfit(np.log(ns), np.log(gains), 1)[0]
        ok &= abs(slope - target) <= 0.1
        details.append(f"Q={q}: slope {slope:.3f} (target {target:g} +- 0.1)")
    return ok, "; ".join(details)


def c05_group_gap_constants():
    """Shrinkage gap 1 - shrink^2 at Q=2 and Q=4, to three decimals."""
    gap2 = 1.0 - group_shrink_factor(2) ** 2
    gap4 = 1.0 - group_shrink_factor(4) ** 2
    ok = round(gap2, 3) == 0.595 and round(gap4, 3) == 0.189
    return ok, f"Q=2: {gap2:.6f} (0.595), Q=4: {gap4:.6f} (0.189)"


def c06_performance_loss_consistency():
    """Loss closed form equals 1 - grouped/ungrouped gain ratio at matched N."""
    q = 10 ** 4
    worst = 0.0
    for kappa in (1.0, 10.0, 100.0):
        for mu in (100, 1000, 10 ** 4):
            inputs = asym.AsymptoticInputs(N=q * mu, Q=q, kappa_bi=kappa, kappa_iu=kappa)
            ratio = asym.ieg_gain(inputs) / asym.uirs_gain(q * mu, inputs)
            loss = asym.performance_loss(kappa, kappa, mu)
            worst = max(worst, abs(loss - (1.0 - ratio)))
    tail = asym.performance_loss(100.0, 100.0, 10 ** 4)
    ok = worst <= 1e-3 and tail < 0.05
    return ok, f"worst |closed - (1 - ratio)| = {worst:.2e}; loss(kappa=100, mu=1e4) = {tail:.4f}"


def c07_auxiliary_closed_forms():
    """Auxiliary updates vs numeric conditional maximizers; varsigma == SINR."""
    from scipy import optimize

    rng = np.random.default_rng(20307)
    worst_xi = worst_vs = worst_id = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
        w = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
        noise = float(rng.uniform(0.05, 2.0))
        weights = rng.uniform(0.5, 2.0, size=k)
        aux = bf.update_auxiliaries(*bf.rx_stats(h, w, noise), weights)
        gam = bf.sinr_all(h, w, noise)
        worst_id = max(worst_id, float(np.max(np.abs(aux.varsigma - gam) / np.maximum(gam, 1e-30))))

        rx = np.conj(h) @ w
        omega = np.diag(rx)
        chi = np.sum(np.abs(rx) ** 2, axis=1) + noise
        for i in range(k):
            a_w = math.sqrt(weights[i] * (1.0 + aux.varsigma[i]))

            def neg_p31(z, i=i, a_w=a_w):
                xi = z[0] + 1j * z[1]
                return -(2 * a_w * np.real(np.conj(xi) * omega[i]) - abs(xi) ** 2 * chi[i])

            # (P3.1) is a concave quadratic: BFGS gets its exact gradient
            slope = 2 * a_w * np.array([omega[i].real, omega[i].imag])
            res = optimize.minimize(neg_p31, [0.1, 0.1], jac=lambda z: 2 * chi[i] * z - slope,
                                    method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
            xi_num = res.x[0] + 1j * res.x[1]
            worst_xi = max(worst_xi, abs(xi_num - aux.xi[i]) / max(1.0, abs(aux.xi[i])))

            def neg_p32(s, i=i):
                if s < 0:
                    return np.inf
                return -(weights[i] * math.log1p(s) - weights[i] * s
                         + 2 * math.sqrt(weights[i] * (1 + s)) * np.real(np.conj(aux.xi[i]) * omega[i]))

            hi = max(10.0, 10.0 * gam[i])
            res = optimize.minimize_scalar(neg_p32, bounds=(0.0, hi), method="bounded",
                                           options={"xatol": 1e-12})
            worst_vs = max(worst_vs, abs(res.x - aux.varsigma[i]) / max(1.0, aux.varsigma[i]))
    ok = worst_xi <= 1e-6 and worst_vs <= 1e-6 and worst_id <= 1e-10
    return ok, (f"xi vs oracle {worst_xi:.2e}, varsigma vs oracle {worst_vs:.2e}, "
                f"varsigma-SINR identity {worst_id:.2e}")


def c08_precoder_update():
    """Feasibility, binding-power accuracy, and scalar grid-search agreement."""
    rng = np.random.default_rng(20308)
    worst_bind = 0.0
    any_bind = False
    for _ in range(300):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
        w = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
        noise = float(rng.uniform(0.05, 2.0))
        weights = np.ones(k)
        aux = bf.update_auxiliaries(*bf.rx_stats(h, w, noise), weights)
        p_max = float(rng.uniform(0.05, 2.0))
        pm = bf.update_precoder(aux, h, p_max)
        if pm.power > p_max + 1e-9:
            return False, f"power {pm.power} exceeds budget {p_max}"
        if pm.lagrange > 0:
            any_bind = True
            worst_bind = max(worst_bind, abs(pm.power - p_max) / p_max)

    # scalar case against a dense magnitude grid (optimal phase aligns zeta)
    worst_scalar = 0.0
    for _ in range(20):
        h = (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))) * 3.0
        w = (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
        noise = float(rng.uniform(0.1, 1.0))
        aux = bf.update_auxiliaries(*bf.rx_stats(h, w, noise), np.ones(1))
        p_max = 0.5
        pm = bf.update_precoder(aux, h, p_max)
        l0, z = bf.precoder_quadratic(aux, h)
        r = np.linspace(0.0, math.sqrt(p_max), 200001)
        vals = 2.0 * abs(z[0, 0]) * r - np.real(l0[0, 0]) * r ** 2
        r_star = r[np.argmax(vals)]
        worst_scalar = max(worst_scalar, abs(abs(pm.w[0, 0]) - r_star))
    grid_res = math.sqrt(0.5) / 200000
    ok = worst_bind <= 1e-6 and any_bind and worst_scalar <= 2 * grid_res
    return ok, (f"binding power error {worst_bind:.2e}; scalar |w| gap vs grid "
                f"{worst_scalar:.2e} (resolution {grid_res:.2e})")


def c09_reflection_majorization():
    """Surrogate validity/tangency, inner monotonicity, brute-force agreement."""
    rng = np.random.default_rng(20309)
    worst_bound = -np.inf
    worst_tan = 0.0
    worst_step = 0.0
    for trial in range(5):
        k, m, q = 3, 2, 2
        c_hat = (rng.standard_normal((k, q, m)) + 1j * rng.standard_normal((k, q, m)))
        h_bu = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) * 0.3
        w = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
        h = bf.effective_channels(np.ones(q), c_hat, h_bu)
        aux = bf.update_auxiliaries(*bf.rx_stats(h, w, 1.0), np.ones(k))
        u, phi = bf.build_rcv_quadratic(w, aux, c_hat, h_bu)
        lam = bf.top_eigenvalue(u)
        scale = max(1.0, float(np.linalg.norm(u)) + float(np.linalg.norm(phi)))

        v_t = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
        tan = abs(bf.mm_surrogate(v_t, v_t, u, lam) - float(np.real(np.vdot(v_t, u @ v_t))))
        worst_tan = max(worst_tan, tan / scale)
        for _ in range(100):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, q))
            gap = float(np.real(np.vdot(v, u @ v))) - bf.mm_surrogate(v, v_t, u, lam)
            worst_bound = max(worst_bound, gap / scale)

        v = v_t.copy()
        obj = bf.rcv_objective(v, u @ v, phi)
        for _ in range(40):
            v = bf.mm_step(v, u @ v, phi, lam)
            obj_new = bf.rcv_objective(v, u @ v, phi)
            worst_step = min(worst_step, (obj_new - obj) / max(1.0, abs(obj)))
            obj = obj_new

        # exhaustive 2-phase grid
        res = 256
        th = np.linspace(0, 2 * np.pi, res, endpoint=False)
        va, vb = np.meshgrid(np.exp(1j * th), np.exp(1j * th), indexing="ij")
        quad = (u[0, 0].real * 1.0 + u[1, 1].real * 1.0
                + 2 * np.real(np.conj(va) * u[0, 1] * vb))
        lin = 2 * np.real(np.conj(va) * phi[0] + np.conj(vb) * phi[1])
        f_grid = float(np.max(-quad - lin))
        start = np.exp(1j * np.angle(-phi))
        v_mm = np.exp(1j * bf.update_rcv_mm(start, w, aux, c_hat, h_bu, max_inner=200, tol=1e-14))
        f_mm = bf.rcv_objective(v_mm, u @ v_mm, phi)
        lipschitz = 2 * lam * math.sqrt(q) + 2 * float(np.linalg.norm(phi))
        tol_grid = lipschitz * (math.pi / res) * math.sqrt(2.0)
        if abs(f_mm - f_grid) > tol_grid:
            return False, (f"trial {trial}: majorized fixed point {f_mm:.6f} vs grid best "
                           f"{f_grid:.6f} beyond resolution {tol_grid:.2e}")
    ok = worst_bound <= 1e-10 and worst_tan <= 1e-10 and worst_step >= -1e-10
    return ok, (f"surrogate bound slack {worst_bound:.2e}, tangency {worst_tan:.2e}, "
                f"worst inner step {worst_step:.2e}, grid agreement ok")


def c10_alternating_convergence():
    """Monotone trace (one closing objective per outer iteration) and
    convergence of the full two-stage solve."""
    worst = 0.0
    max_iters = 0
    for seed in range(20):
        cfg = ScenarioConfig(N=1024, Q=4, M=4, K=4, scenario="obscured", seed=seed)
        ch = build_scenario(cfg, np.random.default_rng(seed))
        res = bf.two_stage_solve(ch, 4, cfg.power_watts, cfg.weights)
        ts = res.trace_steps
        rel = np.diff(ts) / np.maximum(1.0, np.abs(ts[:-1]))
        worst = min(worst, float(rel.min()))
        max_iters = max(max_iters, res.iterations)
        if not res.converged:
            return False, (f"seed {seed} did not converge within "
                           f"{bf.SolverOptions().max_outer} outer iterations")
        if rel.min() < -1e-8:
            return False, f"seed {seed}: objective decreased by {rel.min():.2e} relative"
    return True, f"20 instances: worst relative step {worst:.2e}, max outer iterations {max_iters}"


def c11_trend_reproduction():
    """Scheme ordering at desk scale and element-count growth of the grouped scheme."""
    cfg = ScenarioConfig(N=1024, Q=4, M=4, K=4, scenario="obscured", trials=20, seed=11,
                         schemes=("ieg", "aeg", "random_rcv", "no_irs"))
    rows = harness.run_monte_carlo(cfg)
    means = {s: np.mean([r.wsr_bits for r in rows if r.scheme == s]) for s in cfg.schemes}
    pairs = {}
    for r in rows:
        pairs.setdefault(r.trial, {})[r.scheme] = r.wsr_bits
    wins = sum(1 for t in pairs.values() if t["ieg"] > t["aeg"]) / len(pairs)
    wins_rnd = sum(1 for t in pairs.values() if t["ieg"] >= t["random_rcv"]) / len(pairs)
    order_ok = means["ieg"] > means["aeg"] > means["random_rcv"] > means["no_irs"]

    growth = []
    for n in (256, 1024, 4096):
        cfg_n = ScenarioConfig(N=n, Q=4, M=4, K=4, scenario="obscured", trials=20, seed=11,
                               schemes=("ieg",))
        rows_n = harness.run_monte_carlo(cfg_n)
        growth.append(float(np.mean([r.wsr_bits for r in rows_n])))
    growth_ok = growth[0] < growth[1] < growth[2]
    ok = order_ok and wins >= 0.9 and wins_rnd >= 0.9 and growth_ok
    return ok, (f"means: " + ", ".join(f"{s}={means[s]:.3f}" for s in cfg.schemes)
                + f"; grouped>adjacent in {wins:.0%}, grouped>=random in {wins_rnd:.0%}"
                + f"; grouped growth over N: {[round(g, 3) for g in growth]}")


def c12_end_to_end_determinism():
    """Byte-identical CSV from two identical CLI simulate runs."""
    import yaml

    from .cli import main as cli_main
    cfg = ScenarioConfig(N=128, Q=4, M=2, K=2, trials=2, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "scene.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(cfg.to_dict(), fh)
        out1, out2 = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        cli_main(["simulate", "--config", cfg_path, "--out", out1, "--quiet"])
        cli_main(["simulate", "--config", cfg_path, "--out", out2, "--quiet"])
        b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    ok = b1 == b2 and len(b1) > 0
    return ok, f"two runs, {len(b1)} CSV bytes, identical: {b1 == b2}"


CRITERIA = (c01_special_function_oracle, c02_ungrouped_gain_monte_carlo, c03_grouped_cascade_law,
            c04_scaling_law_slopes, c05_group_gap_constants, c06_performance_loss_consistency,
            c07_auxiliary_closed_forms, c08_precoder_update, c09_reflection_majorization,
            c10_alternating_convergence, c11_trend_reproduction, c12_end_to_end_determinism)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def run(names=None):
    """Run selected (default: all) acceptance criteria, one PASS/FAIL line each on stdout;
    a name is a full name or a number (c05), and one that selects none is a ValueError."""
    full = [fn.__name__ for fn in CRITERIA]
    short = [name.split("_")[0] for name in full]
    unknown = [n for n in names or () if n not in short + full]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; choose from {short} or their full names")
    results = []
    for key, name, fn in zip(short, full, CRITERIA):
        if names and not {key, name} & set(names):
            continue
        t0 = time.perf_counter()
        passed, detail = fn()
        dt = time.perf_counter() - t0
        results.append(CheckResult(name=name, passed=passed, detail=detail, seconds=dt))
        print(f"{'PASS' if passed else 'FAIL'}  {name} ({dt:.1f}s): {detail}")
    return results
