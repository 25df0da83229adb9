"""Special functions and array-geometry primitives shared by every module."""

import numpy as np


def laguerre_half(x):
    """Half-order Laguerre value L_{1/2}(-x) for x >= 0.

    This is the scale factor of the mean of a Rician envelope: for
    h ~ CN(m, s^2) with kappa = |m|^2/s^2, E|h| = (sqrt(pi)/2) * s * L_{1/2}(-kappa).
    Evaluated as (1+x)*i0e(x/2) + x*i1e(x/2); the exponentially scaled Bessel
    functions absorb the e^{-x/2} factor, so the result stays finite for x up
    to 1e8 and beyond.
    """
    from scipy import special          # imported here: it costs about 0.25 s at start-up

    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("laguerre_half requires finite x")
    if np.any(x < 0):
        raise ValueError("laguerre_half requires x >= 0")
    h = x / 2.0
    out = (1.0 + x) * special.i0e(h) + x * special.i1e(h)
    return out if out.ndim else float(out)


def array_response(n, theta):
    """Steering vector of an n-element half-wavelength ULA.

    Entry k (0-based) is e^{j*k*pi*sin(theta)}; the Euclidean norm is sqrt(n).
    theta is measured from broadside, so sin(theta) is the direction cosine
    along the array axis.
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    k = np.arange(n)
    return np.exp(1j * np.pi * np.sin(theta) * k)


def group_shrink_factor(q):
    """Sinc shrinkage sin(pi/q)/(pi/q) of a coherently combined group mean.

    Strictly increasing in q with limit 1. Returns exactly 0.0 for q = 1
    (a single all-element group has a vanishing combined mean).
    """
    if q < 1:
        raise ValueError("group count must be >= 1")
    if q == 1:
        return 0.0
    r = np.pi / q
    return float(np.sin(r) / r)


def virtual_los_direction(q):
    """Unit-modulus direction of the combined-group means.

    Entry for group g (1-based) is e^{-j(2g-1)pi/q}: the centroid phase of the
    g-th equal arc of the unit circle, which is the limiting phase of a group
    built from that arc.
    """
    if q < 1:
        raise ValueError("group count must be >= 1")
    g = np.arange(1, q + 1)
    return np.exp(-1j * (2 * g - 1) * np.pi / q)
