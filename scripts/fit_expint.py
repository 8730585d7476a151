"""Fit the Chebyshev pieces of the scaled exponential integrals.

Prints the ``_E1_CHEB`` and ``_EI_CHEB`` literals of ``oscbath.specfun``:
for each octave [2^k, 2^(k+1)), k = 0..5, the Chebyshev coefficients of
e^x E1(x) and e^-x Ei(x) in t = x / 2^(k-1) - 3, computed with mpmath at
40 digits and cut where the sum of the dropped coefficients falls below
half an ulp of the smallest value on the octave. Then prints
``_EI_ZERO``, the zero x0 of Ei as a sum of two floats, and
``_EI_TAYLOR``, the coefficients Ei^(k)(x0)/k! for k = 1..9.

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
    return [float(c) for c in coeffs[:n]]


def literal(name, f):
    lines = [f"{name} = ("]
    for k in OCTAVES:
        coeffs = chebyshev_coefficients(f, mp.mpf(2) ** k)
        lines.append(f"    (  # [{2 ** k}, {2 ** (k + 1)})")
        for i in range(0, len(coeffs), 3):
            lines.append("        " + " ".join(f"{c!r}," for c in coeffs[i:i + 3]))
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
    print(literal("_E1_CHEB", lambda x: mp.exp(x) * mp.e1(x)))
    print(literal("_EI_CHEB", lambda x: mp.exp(-x) * mp.ei(x)))
    print(taylor_literal())
