"""30-digit references for K of the exponential and the extended Drude n = 1
models, from the imaginary-axis form of K.

With gamma_hat(xi) = gamma_plus(i xi) and u = xi gamma_hat/(xi^2 + omega_0^2),
K = (hbar/2pi) int_0^inf [log1p(u) - u/(1+u)] + [u/(1+u)] 2 omega_0^2/(xi^2 + omega_0^2) dxi,
integrated here in s = ln xi by mpmath's tanh-sinh rule, split at the
logarithms of the model's scales and cut 60 units of s beyond them. The
kernels are gamma_hat = (2 gamma_o/pi) f(xi/omega_e), f(z) = Ci(z) sin z -
si(z) cos z, for the exponential model, and (2 gamma_o/pi) x ln(x)/(x^2 - 1),
x = xi/omega_d, for n = 1. Prints one line per case: its arguments in the
order of ``thermo.k_exponential`` or ``thermo.k_extended_drude1``, K at
hbar = 1 to 20 digits, and the quadrature's own error estimate.

    python scripts/k_references.py
"""

import mpmath as mp

DPS = 30
# (family, omega_0, cutoff, gamma_o): the weak-coupling pins and three
# narrow-resonance cases where the real-axis forms lost the sign of K
CASES = (
    ("exp", 1.0, 1e4, 1e-8),
    ("xdrude1", 1.0, 1e4, 1e-8),
    ("xdrude1", 1.0, 1000.0, 1e-5),
    ("exp", 1.0, 0.1, 1e-5),
    ("exp", 2.138, 0.104, 3.86e-6),
)


def aux_f(z):
    # si(z) = Si(z) - pi/2 cancels to about 1/z: carry log10(z) more digits
    with mp.workdps(DPS + 10 + max(0, int(mp.log10(z)))):
        return +(mp.ci(z) * mp.sin(z) - (mp.si(z) - mp.pi / 2) * mp.cos(z))


def gamma_hat(family, cutoff, gamma_o):
    if family == "exp":
        return lambda xi: 2 * gamma_o / mp.pi * aux_f(xi / cutoff)
    return lambda xi: 2 * gamma_o / mp.pi * (xi / cutoff) * mp.log(xi / cutoff) / (
        (xi / cutoff) ** 2 - 1)


def k_reference(family, omega_0, cutoff, gamma_o):
    with mp.workdps(DPS + 10):
        w0, wc, g = mp.mpf(omega_0), mp.mpf(cutoff), mp.mpf(gamma_o)
        kernel = gamma_hat(family, wc, g)

        def integrand(s):
            xi = mp.exp(s)
            d = xi * xi + w0 * w0
            u = xi * kernel(xi) / d
            v = u / (1 + u)
            return xi * (mp.log1p(u) - v + v * 2 * w0 * w0 / d)

        cuts = sorted({mp.log(w0), mp.log(wc), mp.log(g)})
        points = [cuts[0] - 60, *cuts, cuts[-1] + 60]
        value, error = mp.quad(integrand, points, error=True, maxdegree=10)
        return value / (2 * mp.pi), error / (2 * mp.pi)


if __name__ == "__main__":
    for case in CASES:
        value, error = k_reference(*case)
        print(", ".join(repr(c) for c in case), mp.nstr(value, 20), mp.nstr(error, 3))
