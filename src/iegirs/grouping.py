"""Grouping-matrix construction and combination.

A grouping assigns each of the N reflector elements to exactly one of Q
groups (every group non-empty); elements of a group share one reflection
phase. Constructors: equal-arc partitions (arc_grouping, which stage 1 of
beamforming.two_stage_solve searches over), adjacent blocks (the aeg
scheme's grouping, the identity at Q == N), and a relaxed quadratic program
driven by statistical CSI, a library constructor that the solver does not
call.
"""

import warnings
from dataclasses import dataclass, replace
from math import comb, factorial

import numpy as np

from .config import checked_group_count


@dataclass(frozen=True)
class GroupingMatrix:
    """Assignment of N elements to groups labelled 1..num_groups.

    Valid by construction: every label lies in [1, num_groups] (a binary
    matrix), the assignment encoding puts each element in exactly one group,
    and every group is non-empty; otherwise ValueError. assignment is a
    read-only copy in the smallest unsigned type that holds num_groups
    (np.min_scalar_type): one byte per element up to 255 groups, two up to
    65535. The binary Q x N matrix form is materialised on demand by
    matrix().
    """

    assignment: np.ndarray
    num_groups: int
    converged: bool = True

    def __post_init__(self):
        raw = np.asarray(self.assignment)
        a = raw.astype(int)
        frac = np.flatnonzero(a != raw)
        if frac.size:
            raise ValueError(f"element {frac[0]} has non-integral label {raw[frac[0]]}")
        q = self.num_groups
        bad = np.where((a < 1) | (a > q))[0]
        if bad.size:
            raise ValueError(f"element {bad[0]} has label {a[bad[0]]} outside [1, {q}]")
        empty = np.where(np.bincount(a - 1, minlength=q) == 0)[0]
        if empty.size:
            raise ValueError(f"group {empty[0] + 1} is empty")
        a = a.astype(np.min_scalar_type(q))
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)

    @property
    def num_elements(self):
        return self.assignment.shape[0]

    def matrix(self):
        g = np.zeros((self.num_groups, self.num_elements))
        g[self.assignment - 1, np.arange(self.num_elements)] = 1.0
        return g


def count_groupings(n, q):
    """Exact number of distinct groupings of n elements into q groups.

    Evaluates (1/q!) * sum_{i=0..q} (-1)^i C(q,i) (q-i)^n with exact integer
    arithmetic (a Stirling number of the second kind). Returns 0 for n < q.
    """
    if q < 1:
        raise ValueError("group count must be >= 1")
    if n < q:
        return 0
    total = sum((-1) ** i * comb(q, i) * (q - i) ** n for i in range(q + 1))
    count, rem = divmod(total, factorial(q))
    if rem:
        raise RuntimeError(f"alternating sum for n={n}, q={q} is not divisible by q!")
    return count


def adjacent_grouping(n, q):
    """Contiguous index blocks of size ceil(n/q) or floor(n/q)."""
    checked_group_count(q, n)
    assignment = np.empty(n, dtype=int)
    for label, block in enumerate(np.array_split(np.arange(n), q), start=1):
        assignment[block] = label
    return GroupingMatrix(assignment=assignment, num_groups=q)


_ARC_QUANTUM = 2.0 ** 40


def _wrap(x):
    """x - floor(x): np.mod(x, 1.0) bit for bit (exact by Sterbenz for |x| >= 1), 30x faster."""
    return x - np.floor(x)


def arc_grouping(frac_pos, q):
    """Equal-arc grouping of positions modulo 1: label 1 + floor(q * frac), at most q.

    Positions are quantized at 2^-40 first so that a boundary atom (e.g. the
    zero-phase leading element of a ramp) bins identically whether its
    position was computed as 0 or as 1 - epsilon. Each empty group then takes
    the element circularly nearest its arc's center from the groups of >= 2.
    A non-finite position raises ValueError.
    """
    frac_pos = np.asarray(frac_pos, dtype=float)
    checked_group_count(q, frac_pos.size)
    bad = np.flatnonzero(~np.isfinite(frac_pos))
    if bad.size:
        raise ValueError(f"position {bad[0]} is {frac_pos[bad[0]]}, not finite")
    frac_pos = _wrap(frac_pos)
    frac = _wrap(np.round(frac_pos * _ARC_QUANTUM) / _ARC_QUANTUM)
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
    return GroupingMatrix(assignment=assignment, num_groups=q)


def phase_arc_grouping(phases, q):
    """Stage 1's beam-domain rule: the equal-arc grouping of phases (radians) at -phases / 2pi."""
    return arc_grouping(-np.asarray(phases) / (2 * np.pi), q)


def phase_partition_grouping(delta, n, q):
    """Equal-arc partition of the fractional phase ramp frac((n-1)*delta).

    Element n (1-based) has fractional position frac((n-1)*delta) and joins
    the group covering that arc of the unit interval. For irrational delta
    the positions equidistribute, so group sizes equalize as n grows. Empty
    groups (degenerate delta or small n) are repaired by moving the elements
    whose position is closest to the empty arc's center.
    """
    return arc_grouping(np.arange(n) * float(delta), q)


def combine_cascade(grouping, cascade):
    """Grouped cascade of an (N,) or (N, m) cascade: row q sums the rows assigned to group q.

    np.add.at runs once per column: on 1-D operands it is about 6x faster than
    one call on the 2-D array (numpy 2.4), and each group still adds its terms
    in element order into zeros, so the bits are the same. The labels are
    widened to intp once: np.add.at indexes about 30% slower with the
    grouping's compact unsigned labels.
    """
    cascade = np.asarray(cascade)
    if cascade.shape[0] != grouping.num_elements:
        raise ValueError(f"cascade has {cascade.shape[0]} rows for {grouping.num_elements} elements")
    flat = cascade.reshape(len(cascade), -1)
    out = np.zeros((grouping.num_groups, flat.shape[1]), dtype=cascade.dtype)
    labels = np.subtract(grouping.assignment, 1, dtype=np.intp)
    for j in range(flat.shape[1]):
        np.add.at(out[:, j], labels, flat[:, j])
    return out.reshape((grouping.num_groups,) + cascade.shape[1:])


def combine_cascades(grouping, cascades):
    """combine_cascade of each user's (N, M) cascade, stacked to (K, Q, M).

    cascades may be any iterable, such as a generator that forms each user's
    cascade in turn, so that only one is alive at a time.
    """
    return np.stack([combine_cascade(grouping, c) for c in cascades])


# ---------------------------------------------------------------------------
# Relaxed grouping program on statistical CSI


def project_columns_to_simplex(g):
    """Euclidean projection of every column onto {x >= 0, sum(x) = 1}."""
    q, n = g.shape
    u = -np.sort(-g, axis=0)
    css = np.cumsum(u, axis=0)
    j = np.arange(1, q + 1)[:, None]
    rho = np.sum(u * j > css - 1.0, axis=0)
    tau = (np.take_along_axis(css, rho[None, :] - 1, axis=0)[0] - 1.0) / rho
    return np.maximum(g - tau[None, :], 0.0)


def grouping_objective(g, cascades_stat, h_bu_stat, w_stat, v_stat, aux):
    """Statistical alignment-minus-interference value of a grouping.

    g may be a GroupingMatrix or a relaxed Q x N array. Larger is better:
    the grouped statistical cascade should align with the statistical beams
    while holding cross-beam leakage down.
    """
    gm = g.matrix() if isinstance(g, GroupingMatrix) else np.asarray(g, dtype=float)
    alpha = aux.two_alpha / 2.0
    t = np.conj(v_stat) @ gm                                   # (N,)
    total = 0.0
    for k in range(cascades_stat.shape[0]):
        rows = t @ (cascades_stat[k] @ w_stat)                 # over beams j
        u = rows + np.conj(h_bu_stat[k]) @ w_stat
        total += 2.0 * alpha[k] * np.real(np.conj(aux.xi[k]) * rows[k])
        total -= np.abs(aux.xi[k]) ** 2 * np.sum(np.abs(u) ** 2)
    return float(total)


def _relaxed_objective_and_grad(g, proj, d_rows, alpha, xi, v_stat, gamma, rho):
    """Value and gradient of the relaxed program at fixed direction matrix gamma.

    proj[k] = cascades_stat[k] @ w_stat (N x K); d_rows[k] = direct-link row.
    """
    t = np.conj(v_stat) @ g
    total = rho * np.sum(gamma * g)
    gvec = np.zeros(proj.shape[1], dtype=complex)
    for k in range(proj.shape[0]):
        rows = t @ proj[k]
        u = rows + d_rows[k]
        total += 2.0 * alpha[k] * np.real(np.conj(xi[k]) * rows[k])
        total -= np.abs(xi[k]) ** 2 * np.sum(np.abs(u) ** 2)
        gvec += alpha[k] * np.conj(xi[k]) * proj[k][:, k] - np.abs(xi[k]) ** 2 * (proj[k] @ np.conj(u))
    grad = 2.0 * np.real(np.outer(np.conj(v_stat), gvec)) + rho * gamma
    return float(total), grad


def _round_with_margin_repair(g_relaxed, q):
    if q == 1:
        return np.ones(g_relaxed.shape[1], dtype=int)
    order = np.argsort(-g_relaxed, axis=0)
    assignment = order[0] + 1
    margin = np.take_along_axis(g_relaxed, order[:1], axis=0)[0] - \
        np.take_along_axis(g_relaxed, order[1:2], axis=0)[0]
    sizes = np.bincount(assignment - 1, minlength=q)
    for label in range(1, q + 1):
        while sizes[label - 1] == 0:
            movable = np.where(sizes[assignment - 1] >= 2)[0]
            pick = movable[np.lexsort((-g_relaxed[label - 1, movable], margin[movable]))[0]]
            sizes[assignment[pick] - 1] -= 1
            assignment[pick] = label
            sizes[label - 1] += 1
    return assignment


def relaxed_qp_grouping(cascades_stat, h_bu_stat, w_stat, v_stat, aux, q,
                        rho=1.0, max_rounds=20, pg_steps=15, tol=1e-8, extra_starts=()):
    """Grouping from the relaxed statistical program.

    Alternates projected-gradient ascent over column-stochastic relaxed
    assignments (concave objective: linear alignment plus a negative
    interference quadratic plus rho * <gamma, G>) with updates of the column
    direction matrix gamma = G_n/||G_n||, then rounds each column to its
    argmax group, repairing empty groups by moving the smallest-margin
    columns. Falls back to the best of the rounded result, the warm starts
    (adjacent blocks, the equal-arc partition of the aggregate statistical
    cascade phase, and any caller-supplied extra_starts), measured by
    grouping_objective on the given statistical precoders.

    cascades_stat: (K, N, M) statistical per-element cascades; h_bu_stat:
    (K, M) statistical direct links; w_stat: (M, K) statistical beams;
    v_stat: (Q,) unit-modulus statistical reflection values; aux: statistical
    ratio auxiliaries (varsigma, xi and their weights).
    """
    k_users, n, _ = cascades_stat.shape
    checked_group_count(q, n)
    alpha, xi = aux.two_alpha / 2.0, aux.xi
    proj = np.stack([cascades_stat[k] @ w_stat for k in range(k_users)])
    d_rows = np.stack([np.conj(h_bu_stat[k]) @ w_stat for k in range(k_users)])

    from .beamforming import heuristic_rcv       # here: beamforming imports this module
    phases = heuristic_rcv(cascades_stat, w_stat, aux.alpha_conj_xi)
    starts = [adjacent_grouping(n, q), phase_arc_grouping(phases, q), *extra_starts]

    def binary_obj(gm):
        return grouping_objective(gm, cascades_stat, h_bu_stat, w_stat, v_stat, aux)

    g = max(starts, key=binary_obj).matrix()
    converged = False
    step = 1.0
    for _ in range(max_rounds):
        gamma = g / np.maximum(np.linalg.norm(g, axis=0, keepdims=True), 1e-300)
        moved = 0.0
        for _ in range(pg_steps):
            val, grad = _relaxed_objective_and_grad(g, proj, d_rows, alpha, xi, v_stat, gamma, rho)
            accepted = False
            for _ in range(40):
                g_new = project_columns_to_simplex(g + step * grad)
                val_new, _ = _relaxed_objective_and_grad(g_new, proj, d_rows, alpha, xi, v_stat, gamma, rho)
                if val_new >= val:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            moved = float(np.abs(g_new - g).max())
            g = g_new
            step *= 1.5
            if moved < tol:
                break
        if moved < tol:
            converged = True
            break
    if not converged:
        warnings.warn("relaxed grouping program hit its iteration cap; returning best rounded iterate")

    rounded = GroupingMatrix(assignment=_round_with_margin_repair(g, q), num_groups=q)
    return replace(max(starts + [rounded], key=binary_obj), converged=converged)
