"""Fit the pieces of the scaled exponential integrals and of the auxiliary
function f of the sine and cosine integrals.

Prints the ``_E1_OCTAVES`` and ``_EI_OCTAVES`` literals of
``oscbath.specfun``: for each octave [2^k, 2^(k+1)), k = 0..5, the
coefficients a_0, a_1, ... of e^x E1(x) and e^-x Ei(x) as a polynomial in
t = x / 2^(k-1) - 3. Each polynomial is a Chebyshev interpolant computed
with mpmath at 40 digits, cut where the sum of the dropped Chebyshev
coefficients falls below half an ulp of the smallest value on the octave,
and converted to the power basis at 40 digits before its coefficients are
rounded to floats. Then prints ``_EI_ZERO``, the zero x0 of Ei as a sum
of two floats, and ``_EI_TAYLOR``, the coefficients Ei^(k)(x0)/k! for
k = 1..9.

Then prints the pieces of f(z) = Ci(z) sin z - si(z) cos z: ``_F_SERIES``,
the Taylor coefficients of the entire part f(z) - sin(z) ln(z), cut where
the sum of the dropped ones falls below half an ulp of f(1), its smallest
value on [0, 1]; and ``_F_OCTAVES``, the octave polynomials of f as above.

    python scripts/fit_expint.py
"""

import mpmath as mp

mp.mp.dps = 40
NODES = 48
OCTAVES = range(6)


def aux_f(z):
    # f(z) = Ci(z) sin z - si(z) cos z with si(z) = Si(z) - pi/2
    return mp.ci(z) * mp.sin(z) - (mp.si(z) - mp.pi / 2) * mp.cos(z)


def chebyshev_coefficients(f, lo):
    # interpolation at the Chebyshev points of the first kind on [lo, 2 lo]
    theta = [mp.pi * (j + mp.mpf(0.5)) / NODES for j in range(NODES)]
    fx = [f(lo * (mp.mpf(1.5) + mp.cos(th) / 2)) for th in theta]
    coeffs = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(fx, theta)) / NODES
              for k in range(NODES)]
    coeffs[0] /= 2
    floor = mp.mpf(2) ** -54 * min(abs(v) for v in fx)
    n = NODES
    while n > 1 and mp.fsum(abs(c) for c in coeffs[n - 1:]) < floor:
        n -= 1
    return coeffs[:n]


def power_coefficients(cheb):
    # sum_k c_k T_k(t) = sum_j a_j t^j, with T_(k+1) = 2 t T_k - T_(k-1)
    zero = mp.mpf(0)
    basis = [[mp.mpf(1)], [zero, mp.mpf(1)]]
    while len(basis) < len(cheb):
        prev, cur = basis[-2], basis[-1]
        basis.append([2 * b - (prev[j] if j < len(prev) else zero)
                      for j, b in enumerate([zero] + cur)])
    return [mp.fsum(c * t[j] for c, t in zip(cheb, basis) if j < len(t))
            for j in range(len(cheb))]


def literal(name, f):
    lines = [f"{name} = ("]
    for k in OCTAVES:
        coeffs = power_coefficients(chebyshev_coefficients(f, mp.mpf(2) ** k))
        lines.append(f"    (  # [{2 ** k}, {2 ** (k + 1)})")
        for i in range(0, len(coeffs), 3):
            lines.append("        " + " ".join(f"{float(c)!r}," for c in coeffs[i:i + 3]))
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def taylor_literal():
    x0 = mp.findroot(mp.ei, mp.mpf("0.3725"))
    hi = float(x0)
    coeffs = [float(c) for c in mp.taylor(mp.ei, x0, 9)[1:]]
    lines = [f"_EI_ZERO = ({hi!r}, {float(x0 - hi)!r})", "_EI_TAYLOR = ("]
    for i in range(0, len(coeffs), 3):
        lines.append("    " + " ".join(f"{c!r}," for c in coeffs[i:i + 3]))
    lines.append(")")
    return "\n".join(lines)


def f_series_literal(terms=30):
    # Ci = gamma + ln z + sum_k>=1 (-1)^k z^2k/(2k (2k)!) and
    # Si = sum_k>=0 (-1)^k z^(2k+1)/((2k+1) (2k+1)!): f - sin(z) ln(z) is
    # (Ci - ln z) sin z - Si cos z + (pi/2) cos z, a product of power series
    def coeff(k, odd, log):
        if k % 2 != odd:
            return mp.mpf(0)
        return mp.mpf(-1) ** (k // 2) / ((k if log else 1) * mp.factorial(k))

    sin = [coeff(k, 1, False) for k in range(terms)]
    cos = [coeff(k, 0, False) for k in range(terms)]
    ci = [mp.euler] + [coeff(k, 0, True) for k in range(1, terms)]
    si = [coeff(k, 1, True) for k in range(terms)]

    def times(a, b):
        return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(terms)]

    coeffs = [a - b + mp.pi / 2 * c for a, b, c in zip(times(ci, sin), times(si, cos), cos)]
    floor = mp.mpf(2) ** -54 * aux_f(mp.mpf(1))
    n = terms
    while mp.fsum(abs(c) for c in coeffs[n - 1:]) < floor:
        n -= 1
    lines = ["_F_SERIES = ("]
    for i in range(0, n, 3):
        lines.append("    " + " ".join(f"{float(c)!r}," for c in coeffs[i:min(i + 3, n)]))
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(literal("_E1_OCTAVES", lambda x: mp.exp(x) * mp.e1(x)))
    print(literal("_EI_OCTAVES", lambda x: mp.exp(-x) * mp.ei(x)))
    print(taylor_literal())
    print(f_series_literal())
    print(literal("_F_OCTAVES", aux_f))
