"""Channel synthesis: path loss, Rician links, cascades, and scene construction.

Conventions. The BS ULA lies along the y axis; the IRS is a UPA spanning the
x and z axes (facing +y), factored as a Kronecker product of two ULA
responses with a near-square factorisation of N. Steering angles come from
the direction cosine of the 3-D unit link vector onto each array axis
(broadside convention), and path-loss distances are full 3-D lengths.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import check_fields, checked_positive
from .mathkit import array_response

_PL_COEF = {"los": (42.0, 22.0), "nlos": (40.9, 36.7)}


def path_loss_db(model, d):
    """3GPP-style large-scale path loss in dB at distance d metres."""
    if d <= 0:
        raise ValueError("distance must be positive")
    if model not in _PL_COEF:
        raise ValueError(f"unknown path loss model {model!r}")
    a, b = _PL_COEF[model]
    return a + b * np.log10(d)


def path_loss_amplitude(model, d):
    """Linear amplitude factor delta = 10^(-PL/20)."""
    return 10.0 ** (-path_loss_db(model, d) / 20.0)


@dataclass(frozen=True)
class RicianLink:
    """One Rician-faded link: amplitude factor delta and Rician factor kappa,
    each finite and >= 0, and the LoS component."""

    delta: float
    kappa: float
    los: np.ndarray          # unit-modulus entries, shape = link dims

    def __post_init__(self):
        check_fields(self, {"delta": 0, "kappa": 0})

    @cached_property
    def stat_component(self):
        """Deterministic part delta*sqrt(kappa/(1+kappa))*los (the S-CSI channel), formed once."""
        return self.delta * np.sqrt(self.kappa / (1.0 + self.kappa)) * self.los

    @property
    def nlos_scale(self):
        return self.delta * np.sqrt(1.0 / (1.0 + self.kappa))


# fl(1/sqrt(2)): numpy's complex division by sqrt(2) multiplies by this
# float, so scaling each part by it gives the same bits as dividing.
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def rician_from_normals(stat_component, nlos_scale, z):
    """The Rician realization stat_component + nlos_scale * (z[0] + 1j*z[1]) / sqrt(2)
    from a (2, ...) block z of standard normals."""
    cn = np.empty(z.shape[1:], dtype=complex)
    np.multiply(z[0], INV_SQRT2, out=cn.real)
    np.multiply(z[1], INV_SQRT2, out=cn.imag)
    cn *= nlos_scale
    cn += stat_component
    return cn


def sample_rician(link, rng):
    """One realization delta*(sqrt(k/(1+k))*los + sqrt(1/(1+k))*nlos)."""
    return rician_from_normals(link.stat_component, link.nlos_scale,
                               rng.standard_normal((2,) + link.los.shape))


def cascade_coefficients(kappa_bi, kappa_iu):
    """Mixing coefficients (a_bar, a_tilde, b_bar, b_tilde) of a two-hop Rician cascade.

    a_bar weighs the LoS(x)LoS product, a_tilde the NLoS(x)NLoS product, and
    b_bar/b_tilde the two mixed products; their squares sum to 1.
    """
    d = (1.0 + kappa_bi) * (1.0 + kappa_iu)
    a_bar = np.sqrt(kappa_bi * kappa_iu / d)
    a_tilde = np.sqrt(1.0 / d)
    b_bar = np.sqrt(kappa_iu / d)
    b_tilde = np.sqrt(kappa_bi / d)
    return a_bar, a_tilde, b_bar, b_tilde


def cascaded_channel(h_iu_k, h_bi, out=None):
    """Per-element cascade matrix of h_iu_k (N,) and h_bi (M, N), rows indexed by IRS element.

    Row n is conj(h_iu_k[n]) * conj(h_bi[:, n])^T, shape (N, M), in out if given, else
    column-major (row-major with an axis of length 1). Formed a column at a time from one row of
    h_bi, never a conjugated copy of it, with the bits of conj(h_iu_k)[:, None] * conj(h_bi).T.
    """
    h_iu_k, h_bi = np.asarray(h_iu_k), np.asarray(h_bi)
    if h_bi.ndim != 2 or h_bi.shape[1:] != h_iu_k.shape:
        raise ValueError(f"need h_iu_k (N,) and h_bi (M, N), got {h_iu_k.shape} and {h_bi.shape}")
    if out is None:
        out = np.empty(h_bi.T.shape, complex, order="F" if min(h_bi.shape) > 1 else "C")
    conj_iu, conj_row = np.conjugate(h_iu_k), np.empty(h_iu_k.shape, complex)
    for m, row in enumerate(h_bi):
        np.multiply(conj_iu, np.conjugate(row, out=conj_row), out=out[:, m])
    return out


DRAW_BLOCK_BYTES = 2 ** 19      # bytes of normals per block of trials, or one trial's if more


def cascade_draws(link_iu, link_bi, trials, rng):
    """Blocks of conj(h_iu) * conj(h_bi) over `trials` joint draws of two links, one row per trial.

    Formed out of place by cascaded_channel's conj-then-multiply rule from normals drawn into
    one reused buffer in the serial order, so each row, and rng after the last block, equal
    the serial loop of conj(sample_rician(link_iu, rng)) * conj(sample_rician(link_bi, rng)).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per = max(1, DRAW_BLOCK_BYTES // (4 * link_iu.los.size * 8))
    buffer = np.empty((min(per, trials), 2, 2) + link_iu.los.shape)
    for start in range(0, trials, per):
        z_iu, z_bi = np.moveaxis(rng.standard_normal(out=buffer[:trials - start]), 0, 2)
        a = rician_from_normals(link_iu.stat_component, link_iu.nlos_scale, z_iu)
        b = rician_from_normals(link_bi.stat_component, link_bi.nlos_scale, z_bi)
        yield np.multiply(np.conj(a, out=a), np.conj(b, out=b))


def near_square_factors(n):
    """(n1, n2) with n1*n2 = n and n1 the largest divisor <= sqrt(n)."""
    n1 = int(np.floor(np.sqrt(n)))
    while n % n1:
        n1 -= 1
    return n1, n // n1


def upa_response(n1, n2, u1, u2):
    """Kronecker UPA steering vector from two axis direction cosines."""
    return np.kron(array_response(n1, np.arcsin(u1)), array_response(n2, np.arcsin(u2)))


@dataclass
class ChannelSet:
    """One realization of every link plus its deterministic (S-CSI) twin.

    Shapes: h_bi (M, N); h_iu (K, N); h_bu (K, M). The *_stat arrays hold the
    scaled LoS components delta*sqrt(kappa/(1+kappa))*response, i.e. the
    statistical channels used for grouping. noise_power is linear watts.
    """

    h_bi: np.ndarray
    h_iu: np.ndarray
    h_bu: np.ndarray
    h_bi_stat: np.ndarray
    h_iu_stat: np.ndarray
    h_bu_stat: np.ndarray
    noise_power: float

    def __post_init__(self):
        checked_positive(self.noise_power, "noise power")

    @property
    def num_users(self):
        return self.h_iu.shape[0]

    @property
    def num_elements(self):
        return self.h_bi.shape[1]

    def cascade(self, k, rows=slice(None)):
        """User k's instantaneous per-element cascade at the given element rows, shape (rows, M)."""
        return cascaded_channel(self.h_iu[k, rows], self.h_bi[:, rows])

    def stat_cascades(self):
        """The (K, N, M) statistical cascades in np.stack's strides: another moves stage 1's bits."""
        stack = np.empty((len(self.h_iu_stat), *self.h_bi_stat.shape), complex).transpose(0, 2, 1)
        for k, h_iu_k in enumerate(self.h_iu_stat):
            cascaded_channel(h_iu_k, self.h_bi_stat, out=stack[k])
        return stack


def _unit(v):
    d = np.linalg.norm(v)
    if d <= 0:
        raise ValueError("coincident endpoints in scene geometry")
    return v / d, d


def _draw(link, rng):
    """A realization of link and its statistical component, formed once for both."""
    return sample_rician(link, rng), link.stat_component


def build_scenario(config, rng):
    """Place the scene, derive angles and path losses, and draw one realization.

    User positions are drawn uniformly in a ball of config.user_radius around
    config.user_center; all randomness comes from rng, so equal (config, seed)
    pairs give bitwise-equal ChannelSets.
    """
    bs = np.asarray(config.bs_pos, dtype=float)
    irs = np.asarray(config.irs_pos, dtype=float)
    center = np.asarray(config.user_center, dtype=float)

    # users uniform in a ball: random direction, radius ~ U^(1/3)
    directions = rng.standard_normal((config.K, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = config.user_radius * rng.uniform(size=config.K) ** (1.0 / 3.0)
    users = center[None, :] + radii[:, None] * directions

    n1, n2 = near_square_factors(config.N)
    y_axis = np.array([0.0, 1.0, 0.0])
    x_axis = np.array([1.0, 0.0, 0.0])
    z_axis = np.array([0.0, 0.0, 1.0])

    # BS -> IRS: the LoS outer product of the BS ULA and IRS UPA responses
    e_bi, d_bi = _unit(irs - bs)
    h_bi, h_bi_stat = _draw(RicianLink(
        delta=path_loss_amplitude("los", d_bi), kappa=config.kappa_bi,
        los=np.outer(array_response(config.M, np.arcsin(np.clip(e_bi @ y_axis, -1, 1))),
                     np.conj(upa_response(n1, n2, np.clip(-e_bi @ x_axis, -1, 1),
                                          np.clip(-e_bi @ z_axis, -1, 1)))),
    ), rng)

    # draws in the order h_bi, h_iu by user, h_bu by user; each link, with its
    # LoS array, goes when its draw is stored, and N-length rows go straight
    # into their (K, N) stacks
    direct_model = "nlos" if config.scenario == "obscured" else "los"
    h_iu = np.empty((config.K, config.N), dtype=complex)
    h_iu_stat = np.empty_like(h_iu)
    links_bu = []
    for k in range(config.K):
        e_iu, d_iu = _unit(users[k] - irs)
        h_iu[k], h_iu_stat[k] = _draw(RicianLink(
            delta=path_loss_amplitude("los", d_iu), kappa=config.kappa_iu,
            los=upa_response(n1, n2, np.clip(e_iu @ x_axis, -1, 1), np.clip(e_iu @ z_axis, -1, 1)),
        ), rng)
        e_bu, d_bu = _unit(users[k] - bs)
        links_bu.append(RicianLink(
            delta=path_loss_amplitude(direct_model, d_bu), kappa=config.kappa_bu,
            los=array_response(config.M, np.arcsin(np.clip(e_bu @ y_axis, -1, 1))),
        ))
    h_bu = np.stack([sample_rician(lk, rng) for lk in links_bu])

    return ChannelSet(
        h_bi=h_bi, h_iu=h_iu, h_bu=h_bu, h_bi_stat=h_bi_stat, h_iu_stat=h_iu_stat,
        h_bu_stat=np.stack([lk.stat_component for lk in links_bu]),
        noise_power=config.noise_watts,
    )
