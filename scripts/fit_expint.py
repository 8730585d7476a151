"""Fit the octave pieces of the scaled exponential integrals.

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

    python scripts/fit_expint.py
"""

import mpmath as mp

mp.mp.dps = 40
NODES = 48
OCTAVES = range(6)


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


if __name__ == "__main__":
    print(literal("_E1_OCTAVES", lambda x: mp.exp(x) * mp.e1(x)))
    print(literal("_EI_OCTAVES", lambda x: mp.exp(-x) * mp.ei(x)))
    print(taylor_literal())
