"""Fixed 21-point Gauss-Kronrod rule (QUADPACK's dqk21).

The package integrates one smooth integrand: the density over its support
after x = x_b sin(phi), which is proportional to cos^2(phi) (``verify.mass``).
On it QUADPACK's adaptive routine dqagse accepts the first 21-point
estimate, because dqk21's error floor 50 eps resabs lies below the
requested relative tolerance.  ``gauss_kronrod21`` is therefore that first
estimate, computed with dqk21's constants and in dqk21's summation order
(centre, the nodes shared with the 10-point Gauss rule, the Kronrod-only
nodes, then the scaling by the half-length), so it returns the same
doubles as ``scipy.integrate.quad``; the tests hold it to that on the
mass integrand and on theta sin^2(phi).  ``gauss_kronrod21_array`` takes
the integrand's 21 values from one call; only the sum runs per node.  The
Gauss sum and the error estimate, which only decide whether dqagse
subdivides, are left out.

Reference: R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, QUADPACK: A Subroutine Package for Automatic Integration,
Springer, 1983.
"""

from __future__ import annotations

import numpy as np

# Abscissae of the 21-point Kronrod rule on [-1, 1], positive half, from the
# outermost inwards: odd positions (XGK[1], XGK[3], ...) are the 10-point
# Gauss nodes, even positions the Kronrod extension; XGK[10] is the centre.
XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
# Kronrod weights, matching XGK.
WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)

# dqk21 adds the nodes shared with the Gauss rule first, then the others.
_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# The 21 nodes of [-1, 1] in summation order: the centre, then -x, +x for each j.
_NODES = np.array([0.0] + [s * XGK[j] for j in _ORDER for s in (-1.0, 1.0)])


def gauss_kronrod21_array(f, a: float, b: float) -> float:
    """21-point Gauss-Kronrod estimate of int_a^b f, with one call of f.

    f maps the float array of the 21 nodes to the list of their values as
    Python floats.  Equal limits give 0.0 without calling f, as ``quad`` does.
    """
    if a == b:
        return 0.0
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # centr + hlgth * (-XGK[j]) is dqk21's centr - hlgth * XGK[j] exactly;
    # the centre is centr itself.
    x = centr + hlgth * _NODES
    x[0] = centr
    fx = f(x)
    resk = WGK[10] * fx[0]
    for j, f_lo, f_hi in zip(_ORDER, fx[1::2], fx[2::2]):
        resk = resk + WGK[j] * (f_lo + f_hi)
    return resk * hlgth


def gauss_kronrod21(f, a: float, b: float) -> float:
    """The same estimate for a function f of one float, called once per node."""
    return gauss_kronrod21_array(lambda x: [float(f(v)) for v in x.tolist()], a, b)
