"""Special functions and array-geometry primitives shared by every module."""

import numpy as np

# Chebyshev coefficients of Cephes i0.c and i1.c (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the tables behind np.i0 and scipy.special.i0e/i1e: the A
# series covers h <= 8, the B series h > 8.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17, 3.461222867697461e-17,
    -2.8276239805165836e-16, -3.425485619677219e-16, 1.7725601330565263e-15, 3.8116806693526224e-15,
    -9.554846698828307e-15, -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11, -3.1499165279632416e-11,
    1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09, 2.266668990498178e-08,
    2.0489185894690638e-07, 2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088)
_I1_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16, -1.1055969477353862e-15,
    7.600684294735408e-15, -5.042185504727912e-14, 3.223793365945575e-13, -1.9839743977649436e-12,
    1.1736186298890901e-11, -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07, -8.568720264695455e-07,
    3.4702513081376785e-06, -1.3273163656039436e-05, 4.781565107550054e-05, -0.00016176081582589674,
    0.0005122859561685758, -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471, -0.17641651835783406,
    0.25258718644363365)
_I1_B = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17, -3.209525921993424e-17,
    2.96262899764595e-16, 3.3082023109209285e-16, -1.8803547755107825e-15, -3.8144030724370075e-15,
    1.0420276984128802e-14, 4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11, 3.2526035830154884e-11,
    -1.8974958123505413e-11, -5.589743462196584e-10, -3.835380385964237e-09, -2.6314688468895196e-08,
    -2.512236237870209e-07, -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801)


def _chbevl(x, coefs):
    """Cephes chbevl: the Chebyshev series sum at x, in Cephes' order of operations."""
    b0, b1, b2 = coefs[0], 0.0, 0.0
    for c in coefs[1:]:
        b0, b1, b2 = x * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def _i0e_i1e(h):
    """Cephes' i0e(h) and i1e(h), step for step, for an array h >= 0; a test pins them to scipy."""
    low = h <= 8.0
    a, b = h[low], h[~low]
    ya, yb, root = a / 2.0 - 2.0, 32.0 / b - 2.0, np.sqrt(b)
    i0e, i1e = np.empty_like(h), np.empty_like(h)
    i0e[low], i0e[~low] = _chbevl(ya, _I0_A), _chbevl(yb, _I0_B) / root
    i1e[low], i1e[~low] = _chbevl(ya, _I1_A) * a, _chbevl(yb, _I1_B) / root
    return i0e, i1e


def laguerre_half(x):
    """Half-order Laguerre value L_{1/2}(-x) for x >= 0.

    This is the scale factor of the mean of a Rician envelope: for
    h ~ CN(m, s^2) with kappa = |m|^2/s^2, E|h| = (sqrt(pi)/2) * s * L_{1/2}(-kappa).
    Evaluated as (1+x)*i0e(x/2) + x*i1e(x/2); the exponentially scaled Bessel
    functions absorb the e^{-x/2} factor, so the result stays finite for x up
    to 1e8 and beyond. A test pins i0e and i1e bit for bit to scipy.special.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("laguerre_half requires finite x")
    if np.any(x < 0):
        raise ValueError("laguerre_half requires x >= 0")
    i0e, i1e = _i0e_i1e(x / 2.0)
    out = (1.0 + x) * i0e + x * i1e
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
