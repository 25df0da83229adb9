"""Reference oracles of the test suite, one per concept: the plain or former form of what the
package computes (a serial loop, a per-user loop, np.add.at for a grouped sum), which the tests
call as oracles.<name> and mostly hold the package to bit for bit. pytest collects nothing here."""

from itertools import islice

import numpy as np

from iegirs import asymptotics
from iegirs import beamforming as bf
from iegirs import grouping as grp
from iegirs.beamforming import (PrecodingMatrix, effective_channels, fp_objective,
                                matched_precoder, mm_step, precoder_quadratic, rcv_objective,
                                rx_stats, sinr_all, update_auxiliaries, update_precoder, wsr)
from iegirs.channel import (ChannelSet, RicianLink, near_square_factors, path_loss_amplitude,
                            rician_from_normals, sample_rician, upa_response)
from iegirs.config import SCHEME_DIMS
from iegirs.grouping import combine_cascade, phase_partition_grouping
from iegirs.mathkit import array_response


# mathkit
def laguerre_half(x):
    """laguerre_half's formula on scipy.special's Bessel functions: the bits it must keep."""
    from scipy import special
    h = x / 2.0
    return (1.0 + x) * special.i0e(h) + x * special.i1e(h)


# channel
def complex_normal(shape, rng):
    """The two-draw form: real parts, then imaginary parts, divided by sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def cascade(h_iu_k, h_bi):
    """The former cascade formula: a conjugated copy of each link, then their product."""
    return np.conj(h_iu_k)[:, None] * np.conj(h_bi).T


def stat_stack(channels):
    """The (K, N, M) statistical cascades by np.stack of the two-conjugate formula."""
    return np.stack([cascade(channels.h_iu_stat[k], channels.h_bi_stat)
                     for k in range(channels.num_users)])


def stat_inputs(channels):
    """The statistical cascade stack and its matched beams."""
    cascades_stat = stat_stack(channels)
    return cascades_stat, bf.stat_matched_beams(cascades_stat, channels.h_bu_stat)


def build_scenario(config, rng):
    """The former scene construction: every link built first, then drawn
    through lists and np.stack, its statistical part read once more."""
    bs = np.asarray(config.bs_pos, dtype=float)
    irs = np.asarray(config.irs_pos, dtype=float)
    center = np.asarray(config.user_center, dtype=float)
    directions = rng.standard_normal((config.K, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = config.user_radius * rng.uniform(size=config.K) ** (1.0 / 3.0)
    users = center[None, :] + radii[:, None] * directions
    n1, n2 = near_square_factors(config.N)
    y_axis, x_axis, z_axis = np.eye(3)[[1, 0, 2]]

    def unit(v):
        d = np.linalg.norm(v)
        return v / d, d

    e_bi, d_bi = unit(irs - bs)
    bs_resp = array_response(config.M, np.arcsin(np.clip(e_bi @ y_axis, -1, 1)))
    irs_resp_bi = upa_response(n1, n2, np.clip(-e_bi @ x_axis, -1, 1), np.clip(-e_bi @ z_axis, -1, 1))
    link_bi = RicianLink(delta=path_loss_amplitude("los", d_bi), kappa=config.kappa_bi,
                         los=np.outer(bs_resp, np.conj(irs_resp_bi)))
    direct_model = "nlos" if config.scenario == "obscured" else "los"
    links_iu, links_bu = [], []
    for k in range(config.K):
        e_iu, d_iu = unit(users[k] - irs)
        links_iu.append(RicianLink(
            delta=path_loss_amplitude("los", d_iu), kappa=config.kappa_iu,
            los=upa_response(n1, n2, np.clip(e_iu @ x_axis, -1, 1), np.clip(e_iu @ z_axis, -1, 1))))
        e_bu, d_bu = unit(users[k] - bs)
        links_bu.append(RicianLink(
            delta=path_loss_amplitude(direct_model, d_bu), kappa=config.kappa_bu,
            los=array_response(config.M, np.arcsin(np.clip(e_bu @ y_axis, -1, 1)))))

    def stat(link):                              # formed anew, as the property once was
        return link.delta * np.sqrt(link.kappa / (1.0 + link.kappa)) * link.los

    def draw(link):
        return rician_from_normals(stat(link), link.nlos_scale,
                                   rng.standard_normal((2,) + link.los.shape))

    h_bi = draw(link_bi)
    h_iu = np.stack([draw(lk) for lk in links_iu])
    h_bu = np.stack([draw(lk) for lk in links_bu])
    return ChannelSet(h_bi=h_bi, h_iu=h_iu, h_bu=h_bu, h_bi_stat=stat(link_bi),
                      h_iu_stat=np.stack([stat(lk) for lk in links_iu]),
                      h_bu_stat=np.stack([stat(lk) for lk in links_bu]),
                      noise_power=config.noise_watts)


# asymptotics
def serial_cascade_draws(n, inputs, rng):
    """The serial loop on n-element ramp links, endless: two sample_rician draws per trial."""
    link_bi, link_iu = asymptotics._ramp_links(n, inputs)
    while True:
        yield np.conj(sample_rician(link_iu, rng)) * np.conj(sample_rician(link_bi, rng))


def grouped_rows(inputs, cascades):
    """The group sums of each cascade, one 1-D combine_cascade per trial, stacked."""
    grouping = phase_partition_grouping(asymptotics.DELTA_RAMP, inputs.N, inputs.Q)
    return np.stack([combine_cascade(grouping, c) for c in cascades])


def ungrouped_sums(cascades):
    """The ungrouped sums ||cascade||_1 of each trial, as np.float64 scalars."""
    return [np.abs(c).sum() for c in cascades]


def scalar_square_mean(sums):
    """Mean of the sums squared one scalar at a time, s ** 2."""
    return float(np.mean([s ** 2 for s in sums]))


def grouped_cascades(inputs, trials, rng):
    """Serial per-trial loop: two sample_rician draws, then the group sums."""
    return grouped_rows(inputs, islice(serial_cascade_draws(inputs.N, inputs, rng), trials))


def ungrouped_gain(q, inputs, trials, rng):
    """Serial per-trial loop of the ungrouped phase-aligned gain."""
    return scalar_square_mean(ungrouped_sums(islice(serial_cascade_draws(q, inputs, rng), trials)))


# grouping
def combine(grouping, cascade):
    """Grouped cascade by np.add.at into zeros, one element row at a time, on int64 labels."""
    cascade = np.asarray(cascade)
    out = np.zeros((grouping.num_groups,) + cascade.shape[1:], dtype=cascade.dtype)
    np.add.at(out, grouping.assignment.astype(np.int64) - 1, cascade)
    return out


def mod_arc_grouping(frac_pos, q):
    """Labels of arc_grouping as written with np.mod, its callers wrapping the positions first."""
    frac_pos = np.mod(np.asarray(frac_pos), 1.0)
    frac = np.mod(np.round(frac_pos * 2.0 ** 40) / 2.0 ** 40, 1.0)
    assignment = 1 + np.minimum((q * frac).astype(int), q - 1)
    sizes = np.bincount(assignment - 1, minlength=q)
    for label in range(1, q + 1):
        while sizes[label - 1] == 0:
            movable = np.where(sizes[assignment - 1] >= 2)[0]
            d = np.abs(frac_pos[movable] - (label - 0.5) / q)
            pick = movable[np.argmin(np.minimum(d, 1.0 - d))]
            sizes[assignment[pick] - 1] -= 1
            assignment[pick] = label
            sizes[label - 1] += 1
    return assignment


def partition_count(n, q):
    """Enumerate set partitions into exactly q non-empty groups
    (restricted growth strings: join an existing group or open a new one)."""
    count = 0

    def recurse(i, used):
        nonlocal count
        if i == n:
            count += used == q
            return
        for _ in range(used):
            recurse(i + 1, used)
        if used < q:
            recurse(i + 1, used + 1)

    recurse(0, 0)
    return count


# beamforming: the block updates
def fp_at(rcv_values, w, aux, c_hat, h_bu, noise_power):
    """fp_objective with h and its received statistics formed anew at (rcv_values, w)."""
    return fp_objective(*rx_stats(effective_channels(rcv_values, c_hat, h_bu), w, noise_power), aux)


def precoder_objective(w, l0, z):
    """Concave precoder objective 2 Re tr(Z^H W) - sum_k w_k^H L0 w_k."""
    return float(2.0 * np.real(np.vdot(z, w))
                 - np.real(np.einsum("mk,mn,nk->", w.conj(), l0, w)))


def bisection_multiplier(aux, h, p_max):
    """Reference search: bracket doubling from max(1, top eigenvalue), then
    bisection from [0, hi] down to adjacent floats (at most 200 halvings).
    Returns (lam, w, power_at) for a binding budget."""
    l0, z = precoder_quadratic(aux, h)
    evals, vecs = np.linalg.eigh(l0)
    evals = np.maximum(evals, 0.0)
    c = vecs.conj().T @ z
    c2 = np.abs(c) ** 2

    def power_at(lam):
        return float(np.sum(c2 / (evals[:, None] + lam) ** 2))

    hi = max(1.0, float(evals.max()))
    while power_at(hi) >= p_max:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if power_at(mid) > p_max:
            lo = mid
        else:
            hi = mid
    return hi, vecs @ (c / (evals[:, None] + hi)), power_at


def rcv_quadratic(w, aux, c_hat, h_bu):
    """(U, phi) with every product and scaling in a fresh temporary, U
    returned symmetrized as (U + U^H) / 2."""
    alpha = np.sqrt(aux.weights * (1.0 + aux.varsigma))
    ww = w @ w.conj().T
    u = np.zeros((c_hat.shape[1],) * 2, dtype=complex)
    phi = np.zeros(c_hat.shape[1], dtype=complex)
    for k in range(c_hat.shape[0]):
        a_k = c_hat[k] @ ww
        u += np.abs(aux.xi[k]) ** 2 * (a_k @ c_hat[k].conj().T)
        phi += np.abs(aux.xi[k]) ** 2 * (a_k @ h_bu[k])
        phi -= alpha[k] * np.conj(aux.xi[k]) * (c_hat[k] @ w[:, k])
    return (u + u.conj().T) / 2.0, phi


def joint_phase_rotation(rcv_values, w, aux, c_hat, h_bu):
    """Shared-rotation line search with every product formed per user."""
    alpha = np.sqrt(aux.weights * (1.0 + aux.varsigma))
    g = 0.0 + 0.0j
    for k in range(h_bu.shape[0]):
        a_row = np.conj(rcv_values) @ (c_hat[k] @ w)
        b_row = np.conj(h_bu[k]) @ w
        g += alpha[k] * np.conj(aux.xi[k]) * b_row[k]
        g -= np.abs(aux.xi[k]) ** 2 * (np.conj(a_row) * b_row).sum()
    if g == 0:
        return rcv_values, w
    rot = np.exp(-1j * np.angle(g))
    return rot * rcv_values, rot * w


def rcv_mm(v, w, aux, c_hat, h_bu, max_inner=50, tol=1e-10):
    """Reflection update that forms U v anew in every step."""
    u, phi = rcv_quadratic(w, aux, c_hat, h_bu)
    lam = bf.top_eigenvalue(u)
    obj = rcv_objective(v, u @ v, phi)
    for _ in range(max_inner):
        v = mm_step(v, u @ v, phi, lam)
        obj_new = rcv_objective(v, u @ v, phi)
        done = obj_new - obj <= tol * max(1.0, abs(obj))
        obj = obj_new
        if done:
            break
    return np.angle(v)


# beamforming: the alternating loop and stage 1
def matched_start(v0, c_hat, h_bu, p_max):
    """Start beams formed outside solve_fp: the matched filter to the effective channels at v0."""
    return matched_precoder(effective_channels(np.exp(1j * v0), c_hat, h_bu), p_max)


def solve_fp(c_hat, h_bu, noise_power, p_max, weights, v0, opts, w0=None, *,
                       blocks=False):
    """Alternating loop that re-evaluates every quantity after every block,
    and the rate at the end from a fresh effective channel; w0 defaults to
    matched_start. trace_steps holds the closing objective of every outer
    iteration, as solve_fp's does; with blocks, the objective after every
    block update instead, three per iteration, of which every third closes
    one."""
    phases = v0
    w = matched_start(v0, c_hat, h_bu, p_max) if w0 is None else np.asarray(w0, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    trace, steps = [], []
    pm, aux, converged, it = None, None, False, 0
    for it in range(1, opts.max_outer + 1):
        vals = np.exp(1j * phases)
        h = effective_channels(vals, c_hat, h_bu)
        aux = update_auxiliaries(*rx_stats(h, w, noise_power), weights)
        steps.append(fp_at(vals, w, aux, c_hat, h_bu, noise_power))
        pm = update_precoder(aux, h, p_max)
        w = pm.w
        steps.append(fp_at(vals, w, aux, c_hat, h_bu, noise_power))
        if c_hat.shape[1] > 0:
            phases = rcv_mm(vals, w, aux, c_hat, h_bu, max_inner=bf.MM_ITERS,
                                      tol=bf.MM_TOL)
            rotated, w = joint_phase_rotation(np.exp(1j * phases), w, aux, c_hat,
                                                        h_bu)
            phases = np.angle(rotated)
        current = fp_at(np.exp(1j * phases), w, aux, c_hat, h_bu, noise_power)
        steps.append(current)
        trace.append(current)
        if it > 1 and abs(trace[-1] - trace[-2]) <= opts.tol * max(1.0, abs(trace[-2])):
            converged = True
            break
    pm = PrecodingMatrix(w=w, p_max=p_max, lagrange=pm.lagrange if pm is not None else 0.0)
    h = effective_channels(np.exp(1j * phases), c_hat, h_bu)
    rate = wsr(sinr_all(h, pm.w, noise_power), weights)
    return bf.SolveResult(grouping=None, precoder=pm, rcv=phases, aux=aux, wsr_bits=rate,
                          trace_steps=np.asarray(steps if blocks else trace), iterations=it,
                          converged=converged)


def arc_seed(channels, weights, q):
    """Equal-arc partition of the weighted aggregate statistical cascade phase."""
    cascades_stat, w_mf = stat_inputs(channels)
    return grp.phase_arc_grouping(bf.heuristic_rcv(cascades_stat, w_mf, weights), q)


def statistical_solve(channels, g, weights, p_max, opts, incumbent=None):
    """Statistical solve at g from a start formed here, passed to solve_fp as w0.

    Without an incumbent the start is the heuristic reflection under the
    matched beams and the matched precoder at that reflection; with one, the
    heuristic reflection under the incumbent's beams and those beams.
    """
    cascades_stat, w_mf = stat_inputs(channels)
    c_hat_stat = grp.combine_cascades(g, cascades_stat)
    if incumbent is None:
        v0 = bf.heuristic_rcv(c_hat_stat, w_mf, weights)
        w0 = matched_start(v0, c_hat_stat, channels.h_bu_stat, p_max)
    else:
        w0 = incumbent.precoder.w
        v0 = bf.heuristic_rcv(c_hat_stat, w0, weights)
    stat = bf.solve_fp(c_hat_stat, channels.h_bu_stat, channels.noise_power, p_max, weights, v0,
                       opts, w0)
    stat.grouping = g
    return stat


def arc_search(channels, cascades_stat, w_mf, q, opts, weights, p_max):
    """The arc search that solves every candidate, repeats included, from
    starts it forms itself. Returns the statistical SolveResult of the
    chosen grouping, as _grouping_from_statistics does. It first checks that
    the stage-1 inputs two_stage_solve formed once equal its own."""
    own_cascades, own_beams = stat_inputs(channels)
    assert np.array_equal(cascades_stat, own_cascades) and np.array_equal(w_mf, own_beams)
    best = None
    for seed_g in (grp.adjacent_grouping(channels.num_elements, q),
                   arc_seed(channels, weights, q)):
        stat = statistical_solve(channels, seed_g, weights, p_max, opts)
        if best is None or stat.wsr_bits > best.wsr_bits:
            best = stat
    for _ in range(3):
        candidates = [grp.phase_arc_grouping(bf.heuristic_rcv(cascades_stat, best.precoder.w,
                                                               best.aux.alpha_conj_xi), q)]
        for k in range(channels.num_users):
            ramp = cascades_stat[k] @ best.precoder.w[:, k]
            candidates.append(grp.phase_arc_grouping(np.angle(ramp), q))
        improved = False
        for candidate in candidates:
            if np.array_equal(candidate.assignment, best.grouping.assignment):
                continue
            stat = statistical_solve(channels, candidate, weights, p_max, opts,
                                               incumbent=best)
            if stat.wsr_bits > best.wsr_bits:
                best = stat
                improved = True
        if not improved:
            break
    return best


def grouping_from_statistics(channels, cascades_stat, w_mf, q, opts, weights, p_max,
                                       relaxed_calls):
    """Arc search, then up to one relaxed-program refinement kept only if it
    raises the statistical rate (the relaxed program at rho = 1, 20 rounds of
    15 projected-gradient steps, the incumbent as an extra start)."""
    best = arc_search(channels, cascades_stat, w_mf, q, opts, weights, p_max)
    relaxed_calls.append(q)
    refined = grp.relaxed_qp_grouping(stat_inputs(channels)[0], channels.h_bu_stat,
                                      best.precoder.w, np.exp(1j * best.rcv), best.aux, q,
                                      rho=1.0, max_rounds=20, pg_steps=15,
                                      extra_starts=(best.grouping,))
    if not np.array_equal(refined.assignment, best.grouping.assignment):
        stat = statistical_solve(channels, refined, weights, p_max, opts)
        if stat.wsr_bits > best.wsr_bits:
            best = stat
    return best


# harness
def scheme_problem(scheme, channels, q, seed, grouping=None):
    """The former formula: every user's full (N, M) cascade, sliced per scheme."""
    realtime, n_frozen = SCHEME_DIMS[scheme](channels.num_elements, q)
    vf = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n_frozen))
    rows, direct = [], []
    for k in range(channels.num_users):
        c = channels.cascade(k)
        if grouping is None:
            rows.append(c[:realtime].copy(order="K"))
        else:
            rows.append(combine_cascade(grouping, c))
        if n_frozen:
            direct.append(channels.h_bu[k] + c[-n_frozen:].conj().T @ vf)
    return np.stack(rows), np.stack(direct) if direct else channels.h_bu
