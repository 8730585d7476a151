"""Exponential integrals in overflow-safe scaled form, plus the
branch-unifying arctan ratio of the Drude-family closed forms.

Only finite positive arguments are supported. One evaluator,
:func:`exp_e1_ei`, computes both scaled integrals at every node of a 1-D
ndarray with one piece selection per node and one Horner recurrence over a
table of power-basis coefficients; a float is evaluated as a one-node
array. :func:`exp_e1` and :func:`exp_neg_ei` each return one of its two
values.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "exp_e1",
    "exp_neg_ei",
    "exp_e1_ei",
    "arctan_ratio",
]

EULER_GAMMA = 0.5772156649015328606

# Both functions are evaluated at a fixed cost, each piece a polynomial of
# at most 23 terms in one variable: a power series of 18 terms in x for
# x <= 1, a polynomial in t on each octave [2^k, 2^(k+1)) below 64, picked
# by frexp, and 19 terms of the asymptotic series in u = 1/x from 64 on.
# The first omitted term is below 5e-19 at x = 1 (against E1(1) = 0.22)
# and below 6e-18 relative at x = 64. The octave polynomials are well
# conditioned: the sum of |a_j| is at most 2.44 times the smallest value
# on each octave, so Horner's rule keeps their accuracy.

# 1/(k k!) for k = 1..18: sum_k x^k/(k k!) = x sum_j _SERIES[j] x^j
_SERIES = tuple(1.0 / (k * math.factorial(k)) for k in range(1, 19))
# k! for k = 0..18: (1/x) sum_k (+-1)^k k!/x^k = u sum_j _ASYMPTOTIC[j] (+-u)^j
_ASYMPTOTIC = tuple(float(math.factorial(k)) for k in range(19))


def _alternate(coeffs: tuple) -> tuple:
    # c_j (-y)^j = ((-1)^j c_j) y^j; negation is exact, so Horner's rule in
    # y on these gives the same floats as Horner's rule in -y on coeffs
    return tuple(-c if j % 2 else c for j, c in enumerate(coeffs))


# Power-basis coefficients, lowest degree first, on the octaves in
# t = x / 2^(k-1) - 3 = 4 m - 3 with (m, k + 1) = frexp(x); generated by
# scripts/fit_expint.py, which converts 40-digit Chebyshev fits before rounding.
_E1_OCTAVES = (
    (  # [1, 2)
        0.448256669291583, -0.1092049986875417, 0.028254305883669804,
        -0.007636628031745087, 0.0021318412491310897, -0.000609861142339872,
        0.00017780192335547788, -5.262091791585943e-05, 1.576316796275809e-05,
        -4.7692852182546916e-06, 1.4550374237403995e-06, -4.470866750255221e-07,
        1.38197974564489e-07, -4.285201555623339e-08, 1.3366717987872233e-08,
        -4.301828810552939e-09, 1.360067755635281e-09, -3.393373233678871e-10,
        1.039771885334754e-10, -7.286824394944647e-11, 2.3845006155698297e-11,
    ),
    (  # [2, 4)
        0.2620837402553185, -0.07124959307801469, 0.019930759016547867,
        -0.005702092673506706, 0.0016608965847230888, -0.0004908659503240571,
        0.000146812693489552, -4.434781321587103e-05, 1.3508498725402507e-05,
        -4.1440733152232395e-06, 1.27909418555238e-06, -3.969406804215451e-07,
        1.237485768488255e-07, -3.865388245886315e-08, 1.2135619795414872e-08,
        -3.930985881733153e-09, 1.2492686463287468e-09, -3.1169673802818885e-10,
        9.587245374320935e-11, -6.796131699800026e-11, 2.2311503625429374e-11,
    ),
    (  # [4, 8)
        0.1452676292338869, -0.042798074865559546, 0.012757480689995769,
        -0.0038406918856813384, 0.0011660738102551975, -0.00035661574340011297,
        0.00010975177080111025, -3.3963404029701575e-05, 1.056112393144083e-05,
        -3.2981137814615065e-06, 1.0338807175404045e-06, -3.2520244551039506e-07,
        1.0262109516140818e-07, -3.246968086188421e-08, 1.0267917056235252e-08,
        -3.261474884036415e-09, 1.075874428285245e-09, -3.4556293645843294e-10,
        8.301700352256935e-11, -2.5622706057015375e-11, 1.978597021685324e-11,
        -6.539197791854309e-12,
    ),
    (  # [8, 16)
        0.07732613313891923, -0.024028800777656414, 0.007497954000242534,
        -0.002348407012021756, 0.0007380127410723408, -0.000232635074645391,
        7.353363553183234e-05, -2.3301832515499995e-05, 7.401058460222115e-06,
        -2.355670952806901e-06, 7.512361235491288e-07, -2.400037964579293e-07,
        7.681723845560017e-08, -2.462185624982608e-08, 7.877228985263564e-09,
        -2.5294335886328885e-09, 8.444777960373802e-10, -2.7383479026097425e-10,
        6.556970253340868e-11, -2.0379834752774023e-11, 1.6163224273821277e-11,
        -5.378648494105849e-12,
    ),
    (  # [16, 32)
        0.040059655523840325, -0.012856089142610756, 0.004131198985112392,
        -0.0013291483853786943, 0.00042812298233454185, -0.00013804849576932622,
        4.455902430344997e-05, -1.4396453602292391e-05, 4.655520845344441e-06,
        -1.5067895887416615e-06, 4.88074095243203e-07, -1.582173556516787e-07,
        5.133659683422355e-08, -1.6666659050469486e-08, 5.395095940547423e-09,
        -1.7520200491392174e-09, 5.925989019037998e-10, -1.941604565604489e-10,
        4.625846220068126e-11, -1.448669990438888e-11, 1.1863407977226367e-11,
        -3.979875889750007e-12,
    ),
    (  # [32, 64)
        0.020416345216965157, -0.006671809861890849, 0.002181076660428677,
        -0.0007132701567253995, 0.00023333912618820013, -7.636006370368071e-05,
        2.499684881933185e-05, -8.185398348894749e-06, 2.68117748374997e-06,
        -8.784926628829279e-07, 2.8791874741154346e-07, -9.438919431525641e-08,
        3.095896237503687e-08, -1.0155553398118553e-08, 3.3193029480267354e-09,
        -1.088192044233018e-09, 3.7231859045313304e-10, -1.231075244763558e-10,
        2.915710913580206e-11, -9.190817272238592e-12, 7.764793560482828e-12,
        -2.625098085052057e-12,
    ),
)
_EI_OCTAVES = (
    (  # [1, 2)
        0.7366163509600129, -0.034974842146673284, -0.04681184501888695,
        0.020147653182173014, -0.0056048764008695285, 0.001383532907301005,
        -0.000343918094175837, 8.988663383939128e-05, -2.466988983726846e-05,
        7.015564107871892e-06, -2.0442803014331825e-06, 6.06153441972855e-07,
        -1.820820444702084e-07, 5.5156384804165296e-08, -1.6868333122273987e-08,
        5.327917667349613e-09, -1.6598794797689195e-09, 4.1366362045687573e-10,
        -1.2541993002964542e-10, 8.534753485982314e-11, -2.7695190903500274e-11,
    ),
    (  # [2, 4)
        0.4945764013486412, -0.1612430680153081, 0.02506597845209875,
        0.003990352861660082, -0.004084007968512093, 0.0016398468608918126,
        -0.0005019314953933246, 0.0001370255552701122, -3.618016956215415e-05,
        9.665032182987054e-06, -2.660005571626114e-06, 7.55054650231343e-07,
        -2.1974628716223725e-07, 6.504786300437e-08, -1.9545560663822785e-08,
        6.080239598098762e-09, -1.872697903796383e-09, 4.658204905283834e-10,
        -1.4013718945761898e-10, 9.350347213697006e-11, -3.017087625659121e-11,
    ),
    (  # [4, 8)
        0.2131473100815936, -0.09296128682985387, 0.03740573127429874,
        -0.012591475170520436, 0.003209317832156654, -0.00046068186536496507,
        -7.506306335941527e-05, 8.6767642405806e-05, -4.07438865009385e-05,
        1.4699226968461427e-05, -4.633344384628043e-06, 1.3556078029080688e-06,
        -3.827691777192426e-07, 1.0714348003932393e-07, -3.018829173103746e-08,
        8.657743951514216e-09, -2.5950118988878204e-09, 7.757579988400035e-10,
        -1.8582519082960404e-10, 5.466584764803081e-11, -3.698662673519993e-11,
        1.1804404503829834e-11,
    ),
    (  # [8, 16)
        0.09191454540889658, -0.03432484830225301, 0.013094141048950472,
        -0.00511317571958926, 0.002026755966502882, -0.0007983595056872831,
        0.0003036159850423512, -0.00010817379592300172, 3.503492420681786e-05,
        -9.92604614551924e-06, 2.276909458186643e-06, -3.1479074242960385e-07,
        -5.1875179085656796e-08, 6.423086975969014e-08, -3.3288152400020755e-08,
        1.3487006812207633e-08, -4.819271573230156e-09, 1.6290907396294791e-09,
        -5.102855773063092e-10, 1.254872429171287e-10, -3.6139361998435805e-11,
        2.1884997125529736e-11, -6.629258805273019e-12,
    ),
    (  # [16, 32)
        0.043569408838540574, -0.015221937374991272, 0.005332193944409436,
        -0.0018735048394133474, 0.0006605899257441293, -0.00023389861368767158,
        8.324113277491877e-05, -2.9811670348679882e-05, 1.0759697069777061e-05,
        -3.91914492237748e-06, 1.4418047175734048e-06, -5.35404622547994e-07,
        2.0013744754624357e-07, -7.490369541011449e-08, 2.78535699305646e-08,
        -1.0225055374375678e-08, 3.6794875048508614e-09, -1.2591103278071448e-09,
        4.005503901733202e-10, -1.3441448242357558e-10, 4.726652672030891e-11,
        -9.559286734680304e-12,
    ),
    (  # [32, 64)
        0.021286681326253262, -0.00725356788671888, 0.0024729875381954477,
        -0.000843587858029482, 0.00028793167903286645, -9.83361054300804e-05,
        3.360592904384213e-05, -1.149249894842083e-05, 3.933024306437076e-06,
        -1.347015126125288e-06, 4.6171443514677166e-07, -1.5839528968609804e-07,
        5.439052322330493e-08, -1.8706932335429684e-08, 6.438709599442328e-09,
        -2.19946027395081e-09, 7.569399820427628e-10, -2.8246248060958435e-10,
        9.908717163161801e-11, -1.9633748087533338e-11, 6.233580198609011e-12,
        -8.047837442629793e-12, 2.9176233315372538e-12,
    ),
)


# The zero of Ei, x0 = hi + lo, and the Taylor coefficients Ei^(k)(x0)/k!
# for k = 1..9, used for |x - x0| < 1e-3; generated by scripts/fit_expint.py.
_EI_ZERO = (0.3725074107813666, 1.3140183414386028e-17)
_EI_TAYLOR = (
    3.8962157339071672, -3.2816078663985615, 6.522376145438925,
    -12.969697383536516, 27.88629796294205, -62.37880152891542,
    143.5349488096751, -337.1558271787469, 804.5318399821382,
)


# The pieces of both functions as one table: piece 0 is the power series
# in x, 1..6 the octaves [1, 2) ... [32, 64) in t, 7 the asymptotic series
# in u. _TABLE[k, f * 8 + piece] is coefficient k, highest first and padded
# with leading zeros, of function f (0: e^x E1, 1: e^-x Ei).
_PIECES = (
    (_alternate(_SERIES), _SERIES),
    *zip(_E1_OCTAVES, _EI_OCTAVES),
    (_alternate(_ASYMPTOTIC), _ASYMPTOTIC),
)
_WIDTH = max(len(c) for pair in _PIECES for c in pair)
_TABLE = np.array([
    (0.0,) * (_WIDTH - len(c)) + c[::-1] for f in (0, 1) for c in (p[f] for p in _PIECES)
]).T.copy()


def exp_e1_ei(x: float | np.ndarray) -> tuple:
    """(e^x E1(x), e^-x Ei(x)) for finite x > 0, as floats or as 1-D ndarrays.

    Each node selects its piece once, and one recurrence runs over both
    functions and every node: Horner's rule in the piece's variable, x, t or
    u, two in-place operations per coefficient. A float or 0-d array
    argument is evaluated as a one-node array and gives floats. Raises
    ValueError unless every x is finite and positive.

    Within 1e-3 of the zero of Ei, x0 = 0.3725074107813666, e^-x Ei(x)
    comes from the Taylor series of Ei about x0, so its relative accuracy
    holds up to x0 itself.
    """
    scalar = not isinstance(x, np.ndarray) or x.ndim == 0
    if scalar:
        x = np.array([x], dtype=float)
    if not ((x > 0.0) & (x < math.inf)).all():
        raise ValueError("exp_e1_ei requires finite x > 0")
    m, e = np.frexp(x)
    series = x <= 1.0
    octave = ~series & (e <= len(_E1_OCTAVES))
    # the variable of each node's piece: x, t = 4 m - 3 or u = 1/x
    y = np.where(series, x, np.where(octave, 4.0 * m - 3.0, 1.0 / np.maximum(x, 1.0)))
    piece = np.where(series, 0, np.minimum(e, len(_PIECES) - 1))
    # both functions side by side in one flat row: contiguous in-place steps
    coeffs = _TABLE[:, np.concatenate((piece, piece + len(_PIECES)))]
    y2 = np.concatenate((y, y))
    b = coeffs[0].copy()
    for c in coeffs[1:]:
        b *= y2
        b += c
    e1s, eis = np.where(octave, 1.0, y) * b.reshape(2, -1)
    i = np.flatnonzero(series)
    if i.size:
        # E1 = -gamma - ln x + ..., Ei = gamma + ln x + ...
        xs = x[i]
        q = EULER_GAMMA + np.log(xs)
        decay = np.exp(-xs)
        e1s[i] = np.exp(xs) * (-q + e1s[i])
        eis[i] = decay * (q + eis[i])
        near = np.flatnonzero(np.abs(xs - _EI_ZERO[0]) < 1e-3)
        if near.size:
            # x - hi is exact, so d has the relative accuracy of one rounding
            d = (xs[near] - _EI_ZERO[0]) - _EI_ZERO[1]
            p = np.zeros_like(d)
            for c in reversed(_EI_TAYLOR):
                p = p * d + c
            eis[i[near]] = decay[near] * (d * p)
    if scalar:
        return float(e1s[0]), float(eis[0])
    return e1s, eis


def exp_e1(x: float | np.ndarray) -> float | np.ndarray:
    """Scaled exponential integral e^x E1(x), asymptotically 1/x - 1/x^2:
    the first value of :func:`exp_e1_ei`."""
    return exp_e1_ei(x)[0]


def exp_neg_ei(x: float | np.ndarray) -> float | np.ndarray:
    """Scaled exponential integral e^-x Ei(x), asymptotically 1/x + 1/x^2:
    the second value of :func:`exp_e1_ei`."""
    return exp_e1_ei(x)[1]


def arctan_ratio(w0: float, gamma: float) -> float:
    """(1/w1) arctan(2 w1/gamma) = arccos(gamma/2 w0)/w1, w1^2 = w0^2 - (gamma/2)^2.

    Even in w1, hence single-valued across the damping regimes: for
    w0 < gamma/2 it equals asinh(wb1/w0)/wb1 with wb1^2 = -w1^2. Both
    forms, and w1^2 taken as a product, keep full relative accuracy.
    """
    if w0 <= 0.0 or gamma < 0.0:
        raise ValueError("arctan_ratio requires w0 > 0 and gamma >= 0")
    half = 0.5 * gamma
    disc = (w0 - half) * (w0 + half)
    scale = max(w0, gamma)
    if abs(disc) < 1e-12 * scale * scale:
        # series of arctan(z)/z about the critical point
        return 2.0 / gamma * (1.0 - (4.0 * disc / (gamma * gamma)) / 3.0)
    if disc > 0.0:
        w1 = math.sqrt(disc)
        return math.atan2(w1, half) / w1
    wb1 = math.sqrt(-disc)
    return math.asinh(wb1 / w0) / wb1
