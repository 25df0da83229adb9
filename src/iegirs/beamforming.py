"""Joint transmit beamforming and grouped-reflection optimization.

The weighted-sum-rate problem is handled through a quadratic-transform
reformulation with per-user auxiliaries (varsigma, xi): alternating
closed-form auxiliary updates, a Lagrange-regularized precoder solve, and a
majorization step for the unit-modulus reflection values. The internal
alternating objective uses natural logarithms (the closed-form auxiliary
updates are exact stationary points in that form); reported rates are
bits/s/Hz.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import grouping as grp
from .config import check_fields, checked_group_count, checked_positive, checked_weights
from .grouping import GroupingMatrix


@dataclass(frozen=True)
class FPAuxiliaries:
    """Ratio-transform auxiliaries varsigma (K,) >= 0 and xi (K,) complex of
    one weights vector (K,), finite and >= 0.

    Immutable (varsigma, xi and weights are read-only copies), so the
    per-user terms every block update reads are formed once, here:
    two_alpha = 2 alpha with alpha = sqrt(weights (1 + varsigma)), alpha_xi,
    alpha_conj_xi, conj_xi, fp_base = sum weights (log(1 + varsigma) -
    varsigma), and |xi|^2 as xi_sq by the array square and xi_sq_pow by
    scalar float pow, as the per-user loops form it: the two differ in the
    last bit for some values.
    """

    varsigma: np.ndarray
    xi: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        varsigma = np.array(self.varsigma, dtype=float)
        xi = np.array(self.xi, dtype=complex)
        if not all(0.0 <= x < math.inf for x in varsigma.ravel().tolist()):
            raise ValueError("varsigma must be finite and nonnegative")
        weights = checked_weights(self.weights, varsigma.size)
        for a in (varsigma, xi, weights):
            a.flags.writeable = False
        alpha = np.sqrt(weights * (1.0 + varsigma))
        conj_xi = np.conj(xi)
        mag = np.abs(xi)
        # past the frozen __setattr__, in one call: this runs once per outer iteration
        self.__dict__.update(varsigma=varsigma, xi=xi, weights=weights, two_alpha=2.0 * alpha,
                             alpha_xi=alpha * xi, alpha_conj_xi=alpha * conj_xi, conj_xi=conj_xi,
                             xi_sq=mag ** 2, xi_sq_pow=tuple(m ** 2 for m in mag.tolist()),
                             fp_base=(weights * (np.log1p(varsigma) - varsigma)).sum())


# the largest precoder power, relative to the budget: a binding precoder meets it to rounding
BUDGET_FACTOR = 1 + 1e-9


@dataclass
class PrecodingMatrix:
    """Stack of per-user transmit beamformers, columns w_k, shape (M, K)."""

    w: np.ndarray
    p_max: float
    lagrange: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex)
        if self.power > self.p_max * BUDGET_FACTOR:
            raise ValueError(f"precoder power {self.power} exceeds budget {self.p_max}")

    @property
    def power(self):
        return float((np.abs(self.w) ** 2).sum())


def effective_channels(rcv_values, c_hat, h_bu):
    """Superimposed channels h_k^H = v^H C_hat_k + h_bu_k^H of all users, shape (K, M).

    c_hat is the (K, Q, M) stack of grouped cascades; an empty stack (Q = 0)
    degenerates to the direct links.
    """
    c_hat = np.asarray(c_hat)
    h_bu = np.asarray(h_bu)
    if c_hat.shape[1] == 0:
        return h_bu.astype(complex)
    if c_hat.shape[1] != len(rcv_values) or (c_hat.shape[0], c_hat.shape[2]) != h_bu.shape:
        raise ValueError("grouped cascade dimensions do not match rcv/direct link")
    return np.matmul(c_hat.conj().transpose(0, 2, 1), np.asarray(rcv_values)) + h_bu


def sinr_all(h, w, noise_power):
    """SINRs |h_k^H w_k|^2 / (sum_{j!=k} |h_k^H w_j|^2 + noise) of all users, shape (K,)."""
    checked_positive(noise_power, "noise power")
    rx = np.conj(h) @ w                       # rx[k, j] = h_k^H w_j
    cross = np.abs(rx) ** 2
    signal = np.diagonal(cross).copy()
    return signal / (cross.sum(axis=1) - signal + noise_power)


def wsr(gammas, weights):
    """Weighted sum rate in bits/s/Hz."""
    gammas = np.asarray(gammas, dtype=float)
    if not np.all(gammas >= 0):
        raise ValueError("SINRs must be nonnegative numbers")
    return float(np.sum(np.asarray(weights) * np.log2(1.0 + gammas)))


def rx_stats(h, w, noise_power):
    """Received statistics (omega, inr) of the block updates, each of shape (K,).

    omega_k = h_k^H w_k; inr_k, the interference-plus-noise term, is
    accumulated directly (never by subtracting the signal term) so the
    varsigma == SINR identity of update_auxiliaries holds to machine precision.
    """
    checked_positive(noise_power, "noise power")
    rx = np.conj(h) @ w
    cross = np.abs(rx) ** 2
    np.fill_diagonal(cross, 0.0)
    omega = np.einsum("km,mk->k", np.conj(h), w)
    inr = cross.sum(axis=1) + noise_power
    return omega, inr


def fp_objective(omega, inr, aux):
    """Internal alternating objective (natural-log form) from the received statistics."""
    chi = inr + np.abs(omega) ** 2
    val = aux.fp_base + (aux.two_alpha * np.real(aux.conj_xi * omega)).sum()
    val -= (aux.xi_sq * chi).sum()
    return float(val)


def update_auxiliaries(omega, inr, weights):
    """Jointly optimal auxiliaries for fixed beams and reflections, from the
    received statistics (rx_stats) and the per-user weights, shape (K,).

    varsigma recovers each user's SINR exactly; xi aligns with the received
    symbol and scales with sqrt(weight). weights is checked before any
    arithmetic.
    """
    weights = checked_weights(weights, len(omega))
    mag = np.abs(omega)
    mag2 = mag ** 2
    chi = inr + mag2
    scale = np.sqrt(chi * inr)                # sqrt(chi^2 - |omega|^2 chi), cancellation-free
    if not all(0.0 < x < math.inf for x in scale.ravel().tolist()):
        raise ValueError("ill-posed auxiliary update; check channel/noise inputs")
    a = mag / scale
    b = mag2 / scale
    xi = np.sqrt(weights) * a * np.exp(1j * np.arctan2(omega.imag, omega.real))
    b2 = b ** 2
    varsigma = (b2 + b * np.sqrt(b2 + 4.0)) / 2.0
    return FPAuxiliaries(varsigma=varsigma, xi=xi, weights=weights)


def precoder_quadratic(aux, h):
    """(L0, Z) of the precoder subproblem: maximize 2 Re tr(Z^H W) - sum w_k^H L0 w_k."""
    z = aux.alpha_xi[None, :] * h.T           # columns z_k = alpha_k xi_k h_k
    l0 = np.einsum("k,km,kn->mn", aux.xi_sq, h, np.conj(h))
    return (l0 + l0.conj().T) / 2.0, z


def _newton_multiplier(evals, r, p_max):
    """Estimate of the root of P(lam) = sum_i r_i / (e_i + lam)^2 = p_max.

    Safeguarded Newton on the concave, increasing map lam -> P(lam)^(-1/2)
    (Cauchy-Schwarz gives its second derivative <= 0), started from the lower
    bound max_i sqrt(r_i / p_max) - e_i: every tangent then lands at or left
    of the root, so the iterates rise monotonically to it.

    Returns 0.0 where the scalar arithmetic breaks down (a zero or
    overflowing power), which sends the caller to its other start.
    """
    terms = [(e, ri) for e, ri in zip(evals.tolist(), r.tolist()) if ri > 0.0]
    lam = max(0.0, max((ri / p_max) ** 0.5 - e for e, ri in terms))
    target = p_max ** -0.5
    try:
        for _ in range(60):
            p = d3 = 0.0
            for e, ri in terms:
                inv = 1.0 / (e + lam)
                t = ri * inv * inv
                p += t
                d3 += t * inv
            step = (target - p ** -0.5) * p ** 1.5 / d3
            if not step > 1e-15 * lam:
                return lam
            lam += step
    except (ZeroDivisionError, OverflowError):
        return 0.0
    return lam


def update_precoder(aux, h, p_max, *, tol=1e-6):
    """Power-constrained precoder update.

    Solves the regularized normal equations (L0 + lam I) w_k = z_k per user
    in the eigenbasis of L0. lam = 0 if the unconstrained solution fits the
    budget. Otherwise lam is the smallest positive float with
    power_at(lam) <= p_max, where power_at(lam) = sum c2 / (evals + lam)^2 is
    the budget check below, evaluated in one fixed order.

    Every operation in power_at is monotone under IEEE rounding and the
    summation order does not depend on lam, so power_at is non-increasing
    over the floats and that boundary float is unique: any bracket
    lo < hi with power_at(lo) > p_max >= power_at(hi), bisected down to
    adjacent floats, ends with hi on it. The bracket starts at a Newton
    estimate of the root (_newton_multiplier, scalar arithmetic whose
    rounding does not matter), or at max(1, top eigenvalue) if that is not
    in (0, inf), and probes about 1, 4, 16, ... ulps from it on the side of
    the boundary, about 4 evaluations from a Newton start. A walk down that
    reaches a step of 1 keeps lo = 0; a walk up grows its step until a probe
    lands at or under the budget, as one must, since power_at is 0 at inf.
    So every start ends on the float of a plain bisection from [0, hi].

    The returned power never exceeds p_max; a binding solution that misses
    it by more than tol * p_max raises RuntimeError.
    """
    checked_positive(p_max, "power budget")
    l0, z = precoder_quadratic(aux, h)
    if not (np.isfinite(l0).all() and np.isfinite(z).all()):
        raise ValueError("non-finite precoder inputs")
    evals, vecs = np.linalg.eigh(l0)
    evals = np.maximum(evals, 0.0)
    c = vecs.conj().T @ z
    c2 = np.abs(c) ** 2
    ev = evals[:, None]
    ev2 = ev ** 2

    if ev2[0, 0] > 0.0:
        # evals ascend, so nothing divides by zero, and c2 / ev2 is 0.0
        # wherever c2 is, as the masked form below gives
        p0 = float((c2 / ev2).sum())
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = float(np.where(c2 == 0.0, 0.0, c2 / ev2).sum())
    if math.isfinite(p0) and p0 <= p_max:
        with np.errstate(divide="ignore", invalid="ignore"):
            w_free = np.where(c2 == 0.0, 0.0, c / ev)
        return PrecodingMatrix(w=vecs @ w_free, p_max=p_max, lagrange=0.0)

    def power_at(lam):
        return float((c2 / (ev + lam) ** 2).sum())

    est = _newton_multiplier(evals, c2.sum(axis=1), p_max)
    if not 0.0 < est < np.inf:
        est = max(1.0, float(evals.max()))
    # probe about 1, 4, 16, ... ulps from est, on the side where the
    # boundary lies, until a probe lands past it
    p_est = power_at(est)
    up = p_est > p_max
    lo, hi, p_hi = (est, None, None) if up else (0.0, est, p_est)
    delta = 2.0 ** -52
    while up or delta < 1.0:
        cand = est * (1.0 + delta if up else 1.0 - delta)
        p_cand = power_at(cand)
        if p_cand > p_max:
            lo = cand
        else:
            hi, p_hi = cand, p_cand
        if up != (p_cand > p_max):
            break
        delta *= 4.0
    # collapse the bracket to adjacent floats: far tighter than tol, and it
    # keeps the alternating objective monotone to rounding precision
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        p_mid = power_at(mid)
        if p_mid > p_max:
            lo = mid
        else:
            hi, p_hi = mid, p_mid
    if not abs(p_hi - p_max) <= tol * p_max:
        raise RuntimeError(f"precoder power {p_hi} misses the budget {p_max} "
                           f"by more than {tol} relative")
    return PrecodingMatrix(w=vecs @ (c / (ev + hi)), p_max=p_max, lagrange=hi)


def build_rcv_quadratic(w, aux, c_hat, h_bu, *, work=None):
    """Quadratic model (U, phi) of the reflection subproblem.

    The objective to maximize over unit-modulus v is -v^H U v - 2 Re{v^H phi};
    U is Hermitian positive semidefinite: the sum is checked to be Hermitian
    to 1e-8 relative (ValueError otherwise) and returned symmetrized,
    (U + U^H) / 2, so it is Hermitian exactly. U is built in work[0] of work, a
    (2, Q, Q) complex array, with work[1] as scratch; without it one is
    allocated. A caller that reuses work keeps the (Q, Q) buffers off the
    heap's trim path: freed and re-faulted on every call, they cost more
    than the arithmetic at Q = 256.

    The products run stacked over the users. Each slice of a stacked matmul
    calls the BLAS kernel of the per-user product it replaces (gemm for
    C_k W W^H and the (Q, Q) product, gemv for the vector products), so U
    and phi keep the bits of the per-user loop; a gemm column can differ
    from the matching gemv in the last bit, so the vector products are
    never folded into a gemm. The (Q, Q) products stay per user, summed
    into U in user order: a (K, Q, Q) stack is 4 MB at Q = 256.
    """
    k_users, q, _ = c_hat.shape
    if work is None:
        work = np.empty((2, q, q), dtype=complex)
    u, term = work
    a = c_hat @ (w @ w.conj().T)                      # a_k = C_k W W^H
    a_h = (a @ h_bu[:, :, None])[..., 0]              # a_k h_bu_k
    c_w = (c_hat @ w.T[:, :, None])[..., 0]           # C_k w_k
    c_conj_t = c_hat.conj().transpose(0, 2, 1)
    u.fill(0.0)
    phi = np.zeros(q, dtype=complex)
    for k in range(k_users):
        np.matmul(a[k], c_conj_t[k], out=term)
        term *= aux.xi_sq_pow[k]
        u += term
        phi += aux.xi_sq_pow[k] * a_h[k]
        phi -= aux.alpha_conj_xi[k] * c_w[k]
    # the transposed skew conj(U) - U^T, so that its memory holds the
    # entries of U^H - U in the order np.linalg.norm once summed them
    np.conjugate(u, out=term)
    term -= u.T
    if _frobenius(term) > 1e-8 * max(1.0, _frobenius(u)):
        raise ValueError("reflection quadratic is not Hermitian")
    np.conjugate(u.T, out=term)
    u += term
    # halved on the float view, 10x cheaper than complex division; same bits, as U has no -0.0
    np.multiply(u.view(float), 0.5, out=u.view(float))
    return u, phi


def rcv_objective(v, uv, phi):
    """Value of the reflection subproblem objective at v, with the product uv = U v given."""
    return float(-np.vdot(v, uv).real - 2.0 * np.vdot(v, phi).real)


def mm_surrogate(v, v_t, u, lam):
    """Majorizer of v^H U v: upper bound everywhere, tangent at v_t."""
    d = lam * np.eye(u.shape[0]) - u
    return float(lam * np.real(np.vdot(v, v)) - 2.0 * np.real(np.vdot(v, d @ v_t))
                 + np.real(np.vdot(v_t, d @ v_t)))


def top_eigenvalue(u):
    """Largest eigenvalue of a Hermitian PSD matrix, exact at every size.

    update_rcv_mm's surrogate majorizes only with lam >= lambda_max, so an
    estimate from below would break its bound.
    """
    return float(np.linalg.eigvalsh(u)[-1])


def mm_step(v, uv, phi, lam):
    """One majorization step from v, with the product uv = U v given:
    align with (lam I - U) v - phi.

    Here and in every block update, arctan2(z.imag, z.real) is np.angle(z)
    without its wrapper, which costs as much as the arithmetic at small Q.
    """
    direction = (lam * v - uv) - phi
    out = np.exp(1j * np.arctan2(direction.imag, direction.real))
    out[direction == 0] = 1.0
    return _align_global_phase(out, phi)


def _align_global_phase(v, phi):
    """Exact maximizer along the global-rotation direction e^{j a} v.

    The quadratic term is rotation invariant, so the best rotation solves a
    scalar alignment; without it the iteration crawls along this nearly flat
    ridge whenever the direct links are weak.
    """
    s = np.vdot(v, phi)                       # v^H phi
    if s == 0:
        return v
    return -np.exp(1j * np.arctan2(s.imag, s.real)) * v


def joint_phase_rotation(rcv_values, w, aux, c_hat, h_bu):
    """Exact line search along the shared-rotation direction (e^{ja} v, e^{ja} W).

    The reflected inner products are invariant under this rotation while the
    direct-link terms turn with it, so the best angle has a closed form. The
    three-block cycle on its own chases this gauge at a near-unit rate
    whenever the direct links are much weaker than the reflected path; one
    exact step per cycle removes that crawl. Power and unit-modulus
    feasibility are untouched.

    The per-user products run stacked, each slice on the kernel of the
    per-user product (see build_rcv_quadratic), and g sums the users in
    order, so the angle keeps the bits of the per-user loop.
    """
    a = np.conj(rcv_values) @ (c_hat @ w)             # a[k]: reflected parts, all beams
    b = (np.conj(h_bu)[:, None, :] @ w)[:, 0]         # b[k]: direct parts, all beams
    cross = (np.conj(a) * b).sum(axis=1)
    g = 0.0 + 0.0j
    for k in range(h_bu.shape[0]):
        g += aux.alpha_conj_xi[k] * b[k, k]
        g -= aux.xi_sq_pow[k] * cross[k]
    if g == 0:
        return rcv_values, w
    rot = np.exp(-1j * np.arctan2(g.imag, g.real))
    return rot * rcv_values, rot * w


def update_rcv_mm(v, w, aux, c_hat, h_bu, max_inner, tol, work=None):
    """Reflection update by iterated majorization from the unit-modulus values
    v (Q,); returns the phases (Q,) of the values it reached.

    Each step maximizes a tangent surrogate of the quadratic objective, so
    the true objective is non-decreasing across steps. Stops on relative
    improvement below tol or after max_inner steps. work is the (2, Q, Q)
    scratch of build_rcv_quadratic, which holds U.
    """
    u, phi = build_rcv_quadratic(w, aux, c_hat, h_bu, work=work)
    lam = top_eigenvalue(u)
    uv = u @ v                                # shared by the step and the objective
    obj = rcv_objective(v, uv, phi)
    for _ in range(max_inner):
        v = mm_step(v, uv, phi, lam)
        uv = u @ v
        obj_new = rcv_objective(v, uv, phi)
        done = obj_new - obj <= tol * max(1.0, abs(obj))
        obj = obj_new
        if done:
            break
    return np.arctan2(v.imag, v.real)


def _frobenius(x):
    """np.linalg.norm(x) of a complex array, by the same operations."""
    x = x.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


# inner majorization steps per reflection update, and their relative stopping tolerance
MM_ITERS = 30
MM_TOL = 1e-9
# the largest relative fall of an objective trace that rounding explains
TRACE_SLACK = 1e-8


def trace_fall(steps):
    """Largest relative fall -(s[i+1] - s[i]) / max(1, |s[i]|) of a trace s, 0.0 if it never
    falls. Every block update of the alternating loop is an ascent step, so the loop's trace
    falls by at most TRACE_SLACK."""
    s = np.asarray(steps, dtype=float)
    return float(-(np.diff(s) / np.maximum(1.0, np.abs(s[:-1]))).min(initial=0.0))


@dataclass(frozen=True)
class SolverOptions:
    """Outer-loop stopping rule of the alternating solve: relative change tol,
    finite and >= 0, and at most max_outer iterations, a whole number >= 1."""

    tol: float = 1e-6
    max_outer: int = 200

    def __post_init__(self):
        check_fields(self, {"max_outer": 1, "tol": 0})


@dataclass
class SolveResult:
    """One run of the alternating loop (solve_fp) and the rate it reached.

    grouping is set by the caller that chose it (None from solve_fp); rcv
    holds the reflection phases (Q,), of values np.exp(1j * rcv); aux is the
    last iteration's; wsr_bits, in bits/s/Hz, is the rate at (precoder, rcv);
    trace_steps holds the internal objective at the close of every outer
    iteration, the value the stopping rule reads; solve_fp raises RuntimeError
    unless its trace_fall is at most TRACE_SLACK.
    """

    grouping: GroupingMatrix | None
    precoder: PrecodingMatrix
    rcv: np.ndarray
    aux: FPAuxiliaries
    wsr_bits: float
    trace_steps: np.ndarray
    iterations: int
    converged: bool


def matched_precoder(h, p_max):
    """Matched filter to the effective channels, scaled to the power budget."""
    k = h.shape[0]
    w = np.zeros((h.shape[1], k), dtype=complex)
    for j in range(k):
        nrm = np.linalg.norm(h[j])
        if nrm > 0:
            w[:, j] = np.sqrt(p_max / k) * h[j] / nrm
    return w


def stat_matched_beams(cascades_stat, h_bu_stat):
    """Matched beams to the total statistical channel at all-ones reflection."""
    h = np.stack([np.conj(cascades_stat[k].sum(axis=0)) + h_bu_stat[k]
                  for k in range(h_bu_stat.shape[0])])
    return matched_precoder(h, 1.0)


def heuristic_rcv(cascades, w, coef):
    """Phases (rows,) of sum_k coef_k (C_k @ w_k), summed in user order, over the
    users' cascades C_k (a (K, rows, M) stack, grouped or per element), beams
    w_k (columns of w) and coefficients coef_k; a zero sum has phase 0. Every
    reflection start and every arc partition of a weighted aggregate reads it."""
    return _phase_of_sum((cascades[k] @ w[:, k] for k in range(cascades.shape[0])), coef,
                         cascades.shape[1])


def _phase_of_sum(products, coef, rows):
    """heuristic_rcv from the users' beam products C_k @ w_k, each (rows,), in user order."""
    agg = np.zeros(rows, dtype=complex)
    for c, p in zip(coef, products):
        agg += c * p
    return np.angle(agg)


def solve_fp(c_hat, h_bu, noise_power, p_max, weights, v0, opts, w0=None):
    """Alternating ratio-transform loop at a fixed grouping, from (v0, w0).

    c_hat: (K, Q, M) grouped cascades; Q may be 0, which turns this into a
    precoder-only solve. v0 holds the (Q,) starting reflection phases, w0 the
    (M, K) starting beams, by default the matched filter to the effective
    channels at v0. Returns a SolveResult with grouping None.

    The values np.exp(1j * theta) are formed once per new reflection, and h
    and its received statistics (rx_stats) once per iteration, at the new
    reflection: they give the closing objective and carry over as the next
    iteration's h and auxiliary input, and the last h gives the returned
    rate. At Q = 0 the reflection block leaves h unchanged, so the
    statistics after the precoder update close the iteration. Each carried
    value is the same call on the same inputs that would recompute it, so
    every output is bit for bit that of forming h and rx_stats anew after
    every block. The objective is formed once per iteration, at its close;
    its values between blocks would change no output. Every block update
    is an ascent step, so a trace that falls by more than TRACE_SLACK
    relative (trace_fall) raises RuntimeError.
    """
    checked_positive(p_max, "power budget")
    q = c_hat.shape[1]
    theta = np.asarray(v0, dtype=float)
    v = np.exp(1j * theta)
    trace_steps = []
    work = np.empty((2, q, q), dtype=complex)   # the (Q, Q) buffers of every reflection update
    previous, converged = None, False
    h = effective_channels(v, c_hat, h_bu)
    w = matched_precoder(h, p_max) if w0 is None else np.asarray(w0, dtype=complex)
    stats = rx_stats(h, w, noise_power)
    for it in range(1, opts.max_outer + 1):
        aux = update_auxiliaries(*stats, weights)
        pm = update_precoder(aux, h, p_max)
        w = pm.w
        if q > 0:
            theta = update_rcv_mm(v, w, aux, c_hat, h_bu, max_inner=MM_ITERS, tol=MM_TOL, work=work)
            rotated, w = joint_phase_rotation(np.exp(1j * theta), w, aux, c_hat, h_bu)
            theta = np.arctan2(rotated.imag, rotated.real)
            v = np.exp(1j * theta)
            h = effective_channels(v, c_hat, h_bu)
        stats = rx_stats(h, w, noise_power)
        current = fp_objective(*stats, aux)
        trace_steps.append(current)
        if it > 1 and abs(current - previous) <= opts.tol * max(1.0, abs(previous)):
            converged = True
            break
        previous = current
    trace_steps = np.asarray(trace_steps)
    fall = trace_fall(trace_steps)
    if not fall <= TRACE_SLACK:
        raise RuntimeError(f"objective trace falls by {fall:.2e} relative, "
                           f"more than the slack {TRACE_SLACK:g}")
    pm = PrecodingMatrix(w=w, p_max=p_max, lagrange=pm.lagrange)
    return SolveResult(grouping=None, precoder=pm, rcv=theta, aux=aux,
                       wsr_bits=wsr(sinr_all(h, pm.w, noise_power), aux.weights),
                       trace_steps=trace_steps, iterations=it, converged=converged)


def _grouping_from_statistics(channels, cascades_stat, w_mf, q, opts, weights, p_max):
    """Stage-1 arc search on statistical CSI.

    cascades_stat is the (K, N, M) stack of statistical cascades and w_mf their
    matched beams (stat_matched_beams). Returns the statistical SolveResult of
    the chosen grouping. It solves the alternating loop on the deterministic
    channels at one seed grouping, the beam-domain arc partition
    (grouping.phase_arc_grouping) of the aggregate cascade phase under w_mf,
    then ranks candidate arcs by warm-started statistical solves and keeps any
    that raises the statistical rate, for up to three rounds. At Q == N the
    search stops at its seed, adjacent blocks (the identity): every candidate
    arc relabels it, and a relabelled solve gains only from iterating past
    the seed solve's tolerance.

    Each statistical solve, solve(g, w_align, w0), starts from the heuristic
    reflection under the beams w_align and from w0 (solve_fp's matched start
    if None). A warm start passes the incumbent's beams as both: solving
    every candidate from the same warm point isolates the grouping's own
    contribution from the nonconvex multi-user solve's run-to-run spread.
    """
    def solve(g, w_align, w0=None):
        c_hat_stat = grp.combine_cascades(g, cascades_stat)
        stat = solve_fp(c_hat_stat, channels.h_bu_stat, channels.noise_power, p_max, weights,
                        heuristic_rcv(c_hat_stat, w_align, weights), opts, w0)
        stat.grouping = g
        return stat

    def beam_products(w, own):
        # each user's beam product C_k w_k in turn, formed once: the mixed sum
        # reads it, and its phases, the user's own arc, go into own
        # (a generator: an inline loop keeps the last product alive as candidates are formed)
        for k in range(channels.num_users):
            product = cascades_stat[k] @ w[:, k]
            own.append(np.angle(product))
            yield product

    n = channels.num_elements
    if q == n:
        return solve(grp.adjacent_grouping(n, q), w_mf)
    best = solve(grp.phase_arc_grouping(heuristic_rcv(cascades_stat, w_mf, weights), q), w_mf)

    # candidate arcs, all ranked by statistical solves warm-started from the
    # current best: the mixed-user fixed point (regroup under the solved
    # precoders, each user rotated into its alignment frame) plus one arc
    # per user (serving a single user's ramp coherently can beat any
    # cross-user compromise when the direct links already carry the rest).
    # A solve is deterministic in (candidate, warm state), and one that did
    # not raise the best rate left best as it was, so an assignment already
    # solved from the current best, or the best's own, is skipped: its rate
    # is known not to win. solved holds exactly those assignments.
    solved = {best.grouping.assignment.tobytes()}
    for _ in range(3):
        own = []
        mixed = _phase_of_sum(beam_products(best.precoder.w, own), best.aux.alpha_conj_xi, n)
        candidates = [grp.phase_arc_grouping(p, q) for p in [mixed] + own]
        improved = False
        for candidate in candidates:
            key = candidate.assignment.tobytes()
            if key in solved:
                continue
            stat = solve(candidate, best.precoder.w, best.precoder.w)
            solved.add(key)
            if stat.wsr_bits > best.wsr_bits:
                best = stat
                improved = True
                solved = {key}
        if not improved:
            break
    return best


def two_stage_solve(channels, q, p_max, weights, opts=None, grouping=None):
    """End-to-end solve: statistical grouping, then alternating beamforming.

    Stage 1 picks the grouping from statistical CSI by the arc search; a
    given grouping (a GroupingMatrix of the N elements into q groups) is
    used as it is instead. Stage 2 runs the alternating loop on the grouped
    instantaneous cascades until the internal objective's relative change
    drops below opts.tol or opts.max_outer is reached. p_max is the power
    budget (W) and weights the per-user rate weights, shape (K,). Returns
    the stage-2 SolveResult with its grouping set. Its trace_steps, and
    those of every stage-1 statistical solve, fall by at most TRACE_SLACK
    relative: solve_fp raises RuntimeError otherwise.
    """
    opts = opts or SolverOptions()
    n = channels.num_elements
    weights = checked_weights(weights, channels.num_users)
    checked_group_count(q, n)
    checked_positive(p_max, "power budget")
    if grouping is not None and (grouping.num_elements, grouping.num_groups) != (n, q):
        raise ValueError(f"grouping of {grouping.num_elements} elements into "
                         f"{grouping.num_groups} groups, need {n} into {q}")

    cascades_stat = channels.stat_cascades()
    w_stat = stat_matched_beams(cascades_stat, channels.h_bu_stat)
    if grouping is None:
        stat = _grouping_from_statistics(channels, cascades_stat, w_stat, q, opts, weights, p_max)
        grouping, w_stat = stat.grouping, stat.precoder.w
    v0 = heuristic_rcv(grp.combine_cascades(grouping, cascades_stat), w_stat, weights)
    del cascades_stat                 # released before the instantaneous cascades are formed

    c_hat = grp.combine_cascades(grouping, map(channels.cascade, range(channels.num_users)))
    res = solve_fp(c_hat, channels.h_bu, channels.noise_power, p_max, weights, v0, opts)
    res.grouping = grouping
    return res
