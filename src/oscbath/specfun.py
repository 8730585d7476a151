"""Exponential integrals in overflow-safe scaled form, plus the
branch-unifying arctan ratio of the Drude-family closed forms.

Only real positive arguments are supported. The scaled integrals also take
a 1-D ndarray of arguments: :func:`exp_e1_ei` evaluates both of them at
every node with one piece selection per node and one stacked recurrence.
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

# Each function is evaluated at a fixed cost: a power series of 18 terms
# for x <= 1, a Chebyshev expansion on each octave [2^k, 2^(k+1)) below 64,
# picked by math.frexp, and 19 terms of the asymptotic series from 64 on.
# The first omitted term is below 5e-19 at x = 1 (against E1(1) = 0.22)
# and below 6e-18 relative at x = 64.

# 1/(k k!) for k = 1..18: sum_k x^k/(k k!) = x * _poly(_SERIES, x)
_SERIES = tuple(1.0 / (k * math.factorial(k)) for k in range(1, 19))
# k! for k = 0..18: (1/x) sum_k (+-1)^k k!/x^k = u * _poly(_ASYMPTOTIC, +-u)
_ASYMPTOTIC = tuple(float(math.factorial(k)) for k in range(19))

# Chebyshev coefficients on the octaves, in t = x / 2^(k-1) - 3 = 4 m - 3
# with (m, k + 1) = frexp(x); generated by scripts/fit_expint.py.
_E1_CHEB = (
    (  # [1, 2)
        0.46324352838580507, -0.11534497887909514, 0.01528397025751147,
        -0.002118728756311583, 0.000303644266477795, -4.462280219559204e-05,
        6.6860705980390665e-06, -1.0172755596608788e-06, 1.5670012692782216e-07,
        -2.4383760524831098e-08, 3.826482479452566e-09, -6.047804755560207e-10,
        9.617138194019332e-11, -1.537390419933619e-11, 2.468995367176891e-12,
        -3.9811961621558646e-13, 6.442640845138054e-14, -1.0459312166256069e-14,
        1.7028977913815833e-15, -2.779702909448489e-16, 4.548073989047679e-17,
    ),
    (  # [2, 4)
        0.2727218741818481, -0.0758594431393776, 0.01087113362721191,
        -0.0015949715567875958, 0.0002384274345511502, -3.6183924316441816e-05,
        5.559557819770056e-06, -8.630076592481117e-07, 1.351219784356939e-07,
        -2.1311383806035657e-08, 3.3823752731911783e-09, -5.397496561703579e-10,
        8.654169795041139e-11, -1.3933954737249739e-11, 2.251818649655427e-12,
        -3.6511435508844504e-13, 5.937633647842904e-14, -9.681899929331819e-15,
        1.5825650930050371e-15, -2.5925185012054543e-16, 4.2555815935953854e-17,
    ),
    (  # [4, 8)
        0.1521211124559018, -0.0459218373920122, 0.007018311796195999,
        -0.0010839579386853677, 0.00016891784555893467, -2.6525766480928563e-05,
        4.1931180156783205e-06, -6.66669327781297e-07, 1.0653177474343602e-07,
        -1.7099560522195914e-08, 2.755563607626969e-09, -4.45626791621172e-10,
        7.229530996554045e-11, -1.1762285086166483e-11, 1.918664851080139e-12,
        -3.137117150318042e-13, 5.140409364202696e-14, -8.439602069814206e-15,
        1.38814433751553e-15, -2.2870443139743997e-16, 3.773874324198387e-17,
        -6.2362649839919174e-18,
    ),
    (  # [8, 16)
        0.08137707193928488, -0.025949525281985242, 0.00415603126575249,
        -0.0006683050248783166, 0.00010785491972338033, -1.7463087104988416e-05,
        2.8358575119017813e-06, -4.617570170851645e-07, 7.537130399787535e-08,
        -1.233025047337126e-08, 2.0213032102598795e-09, -3.3198162124844246e-10,
        5.4620624379152825e-11, -9.001254462613968e-12, 1.485602768831329e-12,
        -2.455332013049584e-13, 4.0633537160929777e-14, -6.732692975186007e-15,
        1.116835204334374e-15, -1.8546195734722035e-16, 3.0828903720514826e-17,
        -5.1294789258059014e-18,
    ),
    (  # [16, 32)
        0.042301131773816544, -0.013947924557296178, 0.0023028070600521855,
        -0.00038070232589256355, 6.301686279831608e-05, -1.0443300080835153e-05,
        1.7325979123852314e-06, -2.8774563760870405e-07, 4.783489434947289e-08,
        -7.95943500600254e-09, 1.3255591540855334e-09, -2.2094043950526507e-10,
        3.6854611351432226e-11, -6.1522170291890515e-12, 1.0277288876405006e-12,
        -1.7179781436664724e-13, 2.873657078663417e-14, -4.809694704578627e-15,
        8.054771582551048e-16, -1.3496798830252232e-16, 2.2627654985859616e-17,
        -3.7955054185390536e-18,
    ),
    (  # [32, 64)
        0.0216030089833304, -0.007259443609637639, 0.0012202296044130287,
        -0.0002051881300260429, 3.4516682336148805e-05, -5.808526889095084e-06,
        9.778166483458383e-07, -1.646637194523139e-07, 2.7738460941117553e-08,
        -4.674184742607814e-09, 7.878867971048079e-10, -1.3284701313326956e-10,
        2.2406064476263438e-11, -3.780081582478361e-12, 6.379031434627045e-13,
        -1.0767692275601612e-13, 1.8180313265837888e-14, -3.070347883389242e-15,
        5.186544566209122e-16, -8.763344657425648e-17, 1.4810168381658226e-17,
        -2.5034886217613764e-18,
    ),
)
_EI_CHEB = (
    (  # [1, 2)
        0.7109938316754927, -0.018946485604125984, -0.026381281095997838,
        0.005501277810766627, -0.0007710184335709796, 9.739709139166408e-05,
        -1.249084552929474e-05, 1.6880196774590742e-06, -2.3938070205651247e-07,
        3.5133072477032377e-08, -5.279116225635992e-09, 8.067026789704252e-10,
        -1.2485037291456487e-10, 1.9517683557274607e-11, -3.0762328747835385e-12,
        4.88167714422955e-13, -7.791594106693693e-14, 1.249793107667596e-14,
        -2.013365818383383e-15, 3.255750078576017e-16, -5.2824384505272435e-17,
    ),
    (  # [2, 4)
        0.5054104323033257, -0.15714533571769573, 0.01023869215602043,
        0.001558438997823653, -0.0006132093904239875, 0.00011897098331210834,
        -1.8206677198702508e-05, 2.526467422112609e-06, -3.4267635993391367e-07,
        4.72935935831681e-08, -6.736187108032411e-09, 9.889910362087467e-10,
        -1.4871032242862676e-10, 2.2759750164686382e-11, -3.5295206160299477e-12,
        5.529354883610997e-13, -8.732893102730374e-14, 1.38849179562224e-14,
        -2.2200894984479906e-15, 3.5668743948734306e-16, -5.754637957876437e-17,
    ),
    (  # [4, 8)
        0.2330178383333846, -0.10263747333258877, 0.020252452826560654,
        -0.0032580646337486328, 0.00037699115862158746, -1.699644482210489e-05,
        -5.344625436836132e-06, 1.9536078040955082e-06, -4.2264234357153665e-07,
        7.429302072980444e-08, -1.1677412838868873e-08, 1.7284621479601582e-09,
        -2.4949221680145294e-10, 3.596377246421396e-11, -5.249526001296091e-12,
        7.802897323253035e-13, -1.1811649933171196e-13, 1.816335425233332e-14,
        -2.8286615333984655e-15, 4.449423648572442e-16, -7.054639193572984e-17,
        1.1257557395772775e-17,
    ),
    (  # [8, 16)
        0.09932664988760521, -0.03872285696593708, 0.007718996038431989,
        -0.0015666094046456775, 0.00031844804811688866, -6.316153119181135e-05,
        1.18674401634107e-05, -2.0503080779706596e-06, 3.147261228114083e-07,
        -4.049160412173196e-08, 3.6777763458283596e-09, 2.0625108320551393e-12,
        -1.0346134734249758e-10, 3.1998539837815133e-11, -7.114014014011516e-12,
        1.3553823828628325e-12, -2.3511438399785936e-13, 3.833611649716825e-14,
        -6.0019860176057246e-15, 9.169901955648797e-16, -1.3847405515182e-16,
        2.0871159673242317e-17, -3.16107692969943e-18,
    ),
    (  # [16, 32)
        0.04651258859864231, -0.01679176232317258, 0.0030407989895865177,
        -0.0005527370669496138, 0.00010092924770101523, -1.853193063855411e-05,
        3.425944415847789e-06, -6.3856270297813e-07, 1.2014180178507086e-07,
        -2.2823108106340884e-08, 4.371744586910805e-09, -8.413541873527644e-10,
        1.6172982031712248e-10, -3.081266987102427e-11, 5.7670554276374424e-12,
        -1.05050555272907e-12, 1.8442548417463594e-13, -3.0869213221920894e-14,
        4.859031858633917e-15, -7.041959296441924e-16, 9.01537451177767e-17,
        -9.116446242027573e-18,
    ),
    (  # [32, 64)
        0.022642854176270995, -0.007954747069451653, 0.0013981461554080593,
        -0.0002458976498847845, 4.327606586461919e-05, -7.621672647452713e-06,
        1.343325466473846e-06, -2.3695289169517915e-07, 4.1832744315068965e-08,
        -7.39215172928652e-09, 1.3075416401750975e-09, -2.315284532120946e-10,
        4.1044641321677265e-11, -7.28546296439233e-12, 1.2949701002116576e-12,
        -2.3053012823985027e-13, 4.110904939754154e-14, -7.344828040464535e-15,
        1.3151417501352857e-15, -2.360721384481039e-16, 4.249669746792585e-17,
        -7.675015871648591e-18, 1.391231218117358e-18,
    ),
)


def _poly(coeffs: tuple[float, ...], x: float) -> float:
    # Horner: sum_k coeffs[k] x^k
    p = 0.0
    for c in reversed(coeffs):
        p = p * x + c
    return p


def _chebyshev(coeffs: tuple[float, ...], t: float) -> float:
    # Clenshaw recurrence for sum_k coeffs[k] T_k(t)
    b1 = b2 = 0.0
    t2 = t + t
    for c in reversed(coeffs):
        b1, b2 = t2 * b1 - b2 + c, b1
    return b1 - t * b2


def exp_e1(x: float | np.ndarray) -> float | np.ndarray:
    """Scaled exponential integral e^x E1(x) for x > 0.

    Power series up to x=1 (E1 = -gamma - ln x + sum (-1)^(k+1) x^k/(k k!)),
    Chebyshev pieces on the octaves up to 64, asymptotic series above; the
    scaled form stays representable for arbitrarily large x (asymptotically
    1/x - 1/x^2). An ndarray argument gives an ndarray (see
    :func:`exp_e1_ei`).
    """
    if isinstance(x, np.ndarray):
        return exp_e1_ei(x)[0]
    if not x > 0.0:
        raise ValueError(f"exp_e1 requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * (-EULER_GAMMA - math.log(x) + x * _poly(_SERIES, -x))
    m, e = math.frexp(x)
    if e <= len(_E1_CHEB):
        return _chebyshev(_E1_CHEB[e - 1], 4.0 * m - 3.0)
    u = 1.0 / x
    return u * _poly(_ASYMPTOTIC, -u)


def exp_neg_ei(x: float | np.ndarray) -> float | np.ndarray:
    """Scaled exponential integral e^-x Ei(x) for x > 0.

    Power series up to x=1 (Ei = gamma + ln x + sum x^k/(k k!)), Chebyshev
    pieces on the octaves up to 64, asymptotic series above;
    asymptotically 1/x + 1/x^2. An ndarray argument gives an ndarray (see
    :func:`exp_e1_ei`).

    Near the zero of Ei, x0 = 0.3725074107813666, the accuracy is absolute
    (about 1e-16), not relative: the relative error is 7.5e-8 at
    x0 (1 + 1e-9) and 1.8e-11 at x0 (1 + 1e-6).
    """
    if isinstance(x, np.ndarray):
        return exp_e1_ei(x)[1]
    if not x > 0.0:
        raise ValueError(f"exp_neg_ei requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(-x) * (EULER_GAMMA + math.log(x) + x * _poly(_SERIES, x))
    m, e = math.frexp(x)
    if e <= len(_EI_CHEB):
        return _chebyshev(_EI_CHEB[e - 1], 4.0 * m - 3.0)
    u = 1.0 / x
    return u * _poly(_ASYMPTOTIC, u)


# The pieces of both functions as one table for the ndarray path: piece 0 is
# the power series, 1..6 the octaves [1, 2) ... [32, 64), 7 the asymptotic
# series. _STACKED[k, f, piece] is coefficient k, highest first and padded
# with leading zeros, of function f (0: e^x E1, 1: e^-x Ei).
_PIECES = ((_SERIES, _SERIES), *zip(_E1_CHEB, _EI_CHEB), (_ASYMPTOTIC, _ASYMPTOTIC))
_WIDTH = max(len(c) for pair in _PIECES for c in pair)
_STACKED = np.ascontiguousarray(np.array([
    [(0.0,) * (_WIDTH - len(c)) + c[::-1] for c in pair] for pair in _PIECES
]).transpose(2, 1, 0))


def exp_e1_ei(x: float | np.ndarray) -> tuple:
    """(e^x E1(x), e^-x Ei(x)) for x > 0, as floats or as 1-D ndarrays.

    For an ndarray each node selects its piece once, and one recurrence
    runs over both functions and every node: Horner's rule on the series
    pieces and Clenshaw's on the Chebyshev pieces, written as
    b <- A b + B b' + c with per-node A and B. The operations are those of
    :func:`exp_e1` and :func:`exp_neg_ei` in the same order, so the values
    equal theirs bit for bit.
    """
    if not isinstance(x, np.ndarray):
        return exp_e1(x), exp_neg_ei(x)
    if not (x > 0.0).all():
        raise ValueError("exp_e1_ei requires x > 0")
    m, e = np.frexp(x)
    series = x <= 1.0
    cheb = ~series & (e <= len(_E1_CHEB))
    t = 4.0 * m - 3.0
    u = 1.0 / np.maximum(x, 1.0)
    # Horner in -x or -u for e^x E1 and in x or u for e^-x Ei; Clenshaw in 2t
    a = np.where(series, x, np.where(cheb, t + t, u))
    A = np.stack((np.where(cheb, a, -a), a))
    B = np.where(cheb, -1.0, 0.0)
    coeffs = _STACKED[:, :, np.where(series, 0, np.minimum(e, len(_PIECES) - 1))]
    b1, b2, ab = coeffs[0].copy(), np.zeros_like(A), np.empty_like(A)
    for c in coeffs[1:]:
        np.multiply(A, b1, out=ab)
        b2 *= B
        b2 += ab
        b2 += c
        b1, b2 = b2, b1
    b2 *= np.where(cheb, t, 0.0)
    b1 -= b2
    e1s, eis = np.where(cheb, 1.0, np.where(series, x, u)) * b1
    i = np.flatnonzero(series)
    if i.size:
        # math's exp and log, as in the scalar functions
        xi = x[i].tolist()
        q = np.array([EULER_GAMMA + math.log(v) for v in xi])
        e1s[i] = np.array([math.exp(v) for v in xi]) * (-q + e1s[i])
        eis[i] = np.array([math.exp(-v) for v in xi]) * (q + eis[i])
    return e1s, eis


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
