"""Closed-form asymptotic channel gains and their Monte Carlo validators.

All formulas address a single-antenna link reflected by an N-element surface
under Rician fading on both hops, comparing an ungrouped surface of Q
elements against a grouped surface of N = Q * mu elements with Q combined
reflection dimensions.
"""

from dataclasses import dataclass

import numpy as np

from .channel import RicianLink, cascade_coefficients, cascade_draws
from .config import check_fields, checked_group_count
from .grouping import combine_cascade, phase_partition_grouping
from .mathkit import array_response, group_shrink_factor, laguerre_half, virtual_los_direction


@dataclass(frozen=True)
class AsymptoticInputs:
    """Element/group counts and the two-hop fading parameters; frozen, so mu
    always reads the checked N and Q."""

    N: int
    Q: int
    delta_bi: float = 1.0
    delta_iu: float = 1.0
    kappa_bi: float = 1.0
    kappa_iu: float = 1.0

    def __post_init__(self):
        check_fields(self, dict.fromkeys(("delta_bi", "delta_iu", "kappa_bi", "kappa_iu"), 0))
        checked_group_count(self.Q, self.N)
        if self.N % self.Q:
            raise ValueError("N must be an integer multiple of Q (equal group sizes)")

    @property
    def mu(self):
        return self.N // self.Q

    @property
    def a_bar(self):
        return cascade_coefficients(self.kappa_bi, self.kappa_iu)[0]

    @property
    def a_tilde(self):
        return cascade_coefficients(self.kappa_bi, self.kappa_iu)[1]

    @property
    def scale(self):
        return self.delta_bi * self.delta_iu


def uirs_gain(q, inputs):
    """Asymptotic phase-aligned gain of an ungrouped q-element surface."""
    l_bi = laguerre_half(inputs.kappa_bi)
    l_iu = laguerre_half(inputs.kappa_iu)
    return float(q ** 2 * (np.pi ** 2 / 16.0) * inputs.scale ** 2
                 * inputs.a_tilde ** 2 * l_bi ** 2 * l_iu ** 2)


def combined_cascade_distribution(inputs):
    """Gaussian parameters of the combined grouped cascade.

    Returns (mean vector of length Q, per-entry complex variance): the mean
    is mu * scale * shrink * a_bar along the virtual-LoS direction, the
    variance mu * scale^2 * (1 - a_bar^2).
    """
    shrink = group_shrink_factor(inputs.Q)
    mean = inputs.mu * inputs.scale * shrink * inputs.a_bar * virtual_los_direction(inputs.Q)
    variance = inputs.mu * inputs.scale ** 2 * (1.0 - inputs.a_bar ** 2)
    return mean, float(variance)


def ieg_gain(inputs):
    """Asymptotic phase-aligned gain of the grouped surface.

    For Q >= 2 the combined groups act like a Rician channel whose mean
    carries the sinc shrink factor; the single-group case has a vanishing
    combined mean and only the diffuse power N * scale^2 * (1 - a_bar^2)
    survives.
    """
    a2 = inputs.a_bar ** 2
    s2 = inputs.scale ** 2
    if inputs.Q == 1:
        return float(inputs.N * s2 * (1.0 - a2))
    shrink2 = group_shrink_factor(inputs.Q) ** 2
    if 1.0 - a2 < 1e-12:
        return float(inputs.N ** 2 * s2 * shrink2 * a2)
    arg = shrink2 * a2 * inputs.mu / (1.0 - a2)
    return float(inputs.N * inputs.Q * (np.pi / 4.0) * s2 * (1.0 - a2) * laguerre_half(arg) ** 2)


def performance_loss(kappa_bi, kappa_iu, mu):
    """Asymptotic gain deficit of grouping relative to an equal-size
    ungrouped surface, in (-inf, 1]; small when both hops are strongly LoS."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    s = 1.0 + kappa_bi + kappa_iu
    num = 4.0 * s * laguerre_half(kappa_bi * kappa_iu * mu / s) ** 2
    den = np.pi * laguerre_half(kappa_bi) ** 2 * laguerre_half(kappa_iu) ** 2 * mu
    return float(1.0 - num / den)


# Per-element advance of the deterministic cascade phase ramp, in turns: an
# irrational advance, so the elements' fractional positions equidistribute.
DELTA_RAMP = 1.0 / np.sqrt(2.0)
# Tolerances of the combined-cascade law check: relative modulus error of the
# mean (and its phase error as a share of the group arc 2*pi/Q), and relative
# per-entry variance error.
MEAN_TOL = 0.05
VAR_TOL = 0.10


def _ramp_links(n, inputs):
    """Two Rician links whose cascade phase ramp advances by 2*pi*DELTA_RAMP."""
    theta = np.arcsin(DELTA_RAMP)
    los = array_response(n, theta)
    link_bi = RicianLink(delta=inputs.delta_bi, kappa=inputs.kappa_bi, los=los)
    link_iu = RicianLink(delta=inputs.delta_iu, kappa=inputs.kappa_iu, los=los.copy())
    return link_bi, link_iu


def simulate_grouped_cascades(inputs, trials, rng):
    """Monte Carlo draws of the combined grouped cascade, shape (trials, Q).

    The deterministic cascade component is the DELTA_RAMP phase ramp, and
    the grouping is the equal-arc phase partition for that ramp.
    """
    link_bi, link_iu = _ramp_links(inputs.N, inputs)
    grouping = phase_partition_grouping(DELTA_RAMP, inputs.N, inputs.Q)
    sums = [combine_cascade(grouping, c.T) for c in cascade_draws(link_iu, link_bi, trials, rng)]
    # C order: the last bits of the law statistics over trials depend on the layout
    return np.ascontiguousarray(np.concatenate(sums, axis=1).T)


def simulate_grouped_gain(inputs, trials, rng):
    """Mean simulated phase-aligned gain ||grouped cascade||_1^2."""
    samples = simulate_grouped_cascades(inputs, trials, rng)
    return float(np.mean(np.abs(samples).sum(axis=1) ** 2))


def simulate_ungrouped_gain(q, inputs, trials, rng):
    """Mean simulated phase-aligned gain of an ungrouped q-element surface."""
    link_bi, link_iu = _ramp_links(q, inputs)
    sums = [np.abs(c).sum(axis=1) for c in cascade_draws(link_iu, link_bi, trials, rng)]
    # libm pow, as the scalar s ** 2; the array square differs in the last bit for some s
    return float(np.mean(np.float_power(np.concatenate(sums), 2)))


@dataclass
class CascadeLawReport:
    """Comparison of the empirical grouped-cascade law against the closed form."""

    passed: bool
    mean_pred: np.ndarray
    mean_emp: np.ndarray
    modulus_err: float        # worst relative modulus error of the mean
    phase_err: float          # worst absolute phase error, radians
    variance_pred: float
    variance_emp: np.ndarray
    variance_err: float       # worst relative per-entry variance error
    kurtosis_re: float
    kurtosis_im: float
    trials: int

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} grouped-cascade law: |mean| err {self.modulus_err:.3%}, "
                f"phase err {self.phase_err:.4f} rad, variance err {self.variance_err:.3%}, "
                f"kurtosis ({self.kurtosis_re:.2f}, {self.kurtosis_im:.2f}) over {self.trials} trials")


def _kurtosis(x):
    """Pearson kurtosis m4 / m2^2 with biased central moments (3 for a Gaussian)."""
    d2 = (x - x.mean()) ** 2
    return float(np.mean(d2 ** 2) / np.mean(d2) ** 2)


def validate_combined_cascade_monte_carlo(inputs, trials, rng):
    """Monte Carlo check of the combined-cascade distribution.

    Draws the grouped cascade under the equal-arc partition, then compares
    the empirical mean (modulus within MEAN_TOL relative, phase within
    MEAN_TOL of the group arc 2*pi/Q) and per-entry variance (within VAR_TOL
    relative) against the closed form. Also reports the kurtosis of the
    centered real/imaginary parts as a normality proxy (3 for a Gaussian).
    """
    samples = simulate_grouped_cascades(inputs, trials, rng)
    mean_pred, var_pred = combined_cascade_distribution(inputs)
    mean_emp = samples.mean(axis=0)
    centered = samples - mean_emp[None, :]
    var_emp = np.mean(np.abs(centered) ** 2, axis=0)

    if np.all(np.abs(mean_pred) > 0):
        modulus_err = float(np.max(np.abs(np.abs(mean_emp) - np.abs(mean_pred)) / np.abs(mean_pred)))
        dphi = np.angle(mean_emp * np.conj(mean_pred))
        phase_err = float(np.max(np.abs(dphi)))
        mean_ok = modulus_err <= MEAN_TOL and phase_err <= MEAN_TOL * (2 * np.pi / inputs.Q)
    else:
        # vanishing predicted mean: require the empirical mean to be small
        # against the per-entry standard deviation
        modulus_err = float(np.max(np.abs(mean_emp)) / np.sqrt(var_pred))
        phase_err = float("nan")
        mean_ok = modulus_err <= 0.1
    variance_err = float(np.max(np.abs(var_emp - var_pred) / var_pred))
    kurt_re = _kurtosis(centered.real.ravel())
    kurt_im = _kurtosis(centered.imag.ravel())
    passed = bool(mean_ok and variance_err <= VAR_TOL)
    return CascadeLawReport(passed=passed, mean_pred=mean_pred, mean_emp=mean_emp,
                        modulus_err=modulus_err, phase_err=phase_err,
                        variance_pred=var_pred, variance_emp=var_emp,
                        variance_err=variance_err, kurtosis_re=kurt_re,
                        kurtosis_im=kurt_im, trials=trials)
