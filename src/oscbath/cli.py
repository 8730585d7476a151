"""Command-line front end.

Commands: ``report`` (one continuous model), ``table1`` / ``table2`` /
``fig1`` (the reference grids as CSV or aligned text), ``discrete`` (exact
finite-bath report or seeded random invariant suite), and ``check`` (the
full property suite). Exit codes: 0 success, 1 usage or input error or an
integral that misses its tolerance within its budget, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import discrete, thermo
from .quadrature import (
    DEFAULT_MAX_EVALS, DEFAULT_TOL, DivergenceClass, Inconclusive, NonConvergence,
)
from .spectral import parse_model

FIG1_RATIOS = (2.0, 5.0, 10.0)
TABLE1_OMEGA_E = (0.5, 1.0, 5.0, 10.0, 50.0, 80.0)
TABLE1_GAMMA = (0.5, 1.0, 2.0, 5.0)
TABLE_GRID = (0.5, 1.0, 5.0, 10.0)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _fig1_x_grid() -> list[float]:
    return [(10 + 5 * i) / 100.0 for i in range(59)]


def _emit(rows: list[list[str]], header: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
    else:
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        ] + ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    _write("\n".join(lines) + "\n", out_path)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_report(args: argparse.Namespace) -> int:
    model = parse_model(args.model)
    rep = thermo.thermo_report(
        model, 1.0, args.omega0, hbar=args.hbar, tol=args.tol,
        max_evals=args.max_evals,
    )

    def render(v) -> str:
        return str(v) if isinstance(v, DivergenceClass) else _fmt(v)

    lines = [
        f"model: {args.model}",
        f"status: {rep.model_status}",
        f"E_s(0): {render(rep.E_s0)}",
        f"F(0): {render(rep.F0)}",
        f"K: {render(rep.K)}",
    ]
    if rep.K_normalized is not None:
        e_g = 0.5 * args.hbar * args.omega0
        lines.append(f"K/E_g: {_fmt(rep.K_normalized)}")
        lines.append(f"K*pi/(gamma_o*E_g): {_fmt(rep.K * math.pi / (model.gamma_o * e_g))}")
    lines.append(f"method: {rep.method}")
    # an error estimate is stable to about its 6th digit: 3 are printed
    lines.append(f"error_estimate: {rep.error_estimate:.3g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def table1_grid(
    hbar: float, tol: float, max_evals: int = DEFAULT_MAX_EVALS
) -> list[list[float]]:
    """K_e/E_g for the exponential-cutoff model, omega_0 = 1, E_g = hbar/2.

    One integral whose 24 entries share their panels; ``tol`` bounds the
    absolute error of each entry's K (before the division by E_g).
    """
    e_g = 0.5 * hbar
    k = thermo.k_exponential(
        1.0, np.array(TABLE1_OMEGA_E)[:, None], np.array(TABLE1_GAMMA), hbar=hbar, tol=tol,
        max_evals=max_evals,
    )
    return (k / e_g).tolist()


def cmd_table1(args: argparse.Namespace) -> int:
    header = ["omega_e"] + [f"g{g:g}" for g in TABLE1_GAMMA]
    rows = [
        [_fmt(we)] + [_fmt(v) for v in vals]
        for we, vals in zip(TABLE1_OMEGA_E, table1_grid(args.hbar, args.tol, args.max_evals))
    ]
    rows.append(["inf"] + [_fmt(g / math.pi) for g in TABLE1_GAMMA])
    _emit(rows, header, args.format, args.out)
    return 0


def table2_grid(
    hbar: float, tol: float, max_evals: int = DEFAULT_MAX_EVALS
) -> list[tuple[float, float, float, float]]:
    """(omega_0, omega_d, Kd_norm, Kd1_norm) with gamma_o = 1, E_g = hbar omega_0/2.

    The Kd1 column is one integral whose 16 entries share their panels.
    """
    kd1 = thermo.k_extended_drude1(
        np.array(TABLE_GRID)[:, None], np.array(TABLE_GRID), 1.0, hbar=hbar, tol=tol,
        max_evals=max_evals,
    )
    out = []
    for i, w0 in enumerate(TABLE_GRID):
        for j, wd in enumerate(TABLE_GRID):
            norm = math.pi / (1.0 * 0.5 * hbar * w0)
            kd = thermo.k_drude_closed(w0, wd, 1.0, hbar=hbar)
            out.append((w0, wd, kd * norm, float(kd1[i, j]) * norm))
    return out


def cmd_table2(args: argparse.Namespace) -> int:
    header = ["omega0", "omega_d", "Kd_norm", "Kd1_norm"]
    rows = [
        [_fmt(w0), _fmt(wd), _fmt(a), _fmt(b)]
        for w0, wd, a, b in table2_grid(args.hbar, args.tol, args.max_evals)
    ]
    _emit(rows, header, args.format, args.out)
    return 0


def fig1_grid(hbar: float) -> list[tuple[float, float, float]]:
    """(x, Omega/w0, K/E_g) for the weakly divergent extended-Drude family.

    w0 = 1, gamma = x, E_g = (hbar/2) sqrt(Omega gamma + w0^2).
    """
    out = []
    for ratio in FIG1_RATIOS:
        for x in _fig1_x_grid():
            k = thermo.k_extended_drude2_closed(1.0, ratio, x, hbar=hbar)
            e_g = 0.5 * hbar * math.sqrt(ratio * x + 1.0)
            out.append((x, ratio, k / e_g))
    return out


def cmd_fig1(args: argparse.Namespace) -> int:
    header = ["x", "Omega_over_w0", "K_over_Eg"]
    rows = [[_fmt(x), _fmt(r), _fmt(v)] for x, r, v in fig1_grid(args.hbar)]
    _emit(rows, header, args.format, args.out)
    return 0


def cmd_discrete(args: argparse.Namespace) -> int:
    if args.random is not None:
        if args.seed is None:
            print("error: --random requires --seed", file=sys.stderr)
            return 1
        count = 20 if args.count is None else args.count
        rng = np.random.default_rng(args.seed)
        failures = 0
        for i in range(count):
            bath = discrete.random_bath(rng, n_max=args.random)
            violations = discrete.invariant_violations(bath, hbar=args.hbar)
            if violations:
                failures += 1
                for v in violations:
                    print(f"bath {i} (N={bath.n}): {v}")
        print(f"random suite: {count - failures}/{count} baths pass")
        return 0 if failures == 0 else 2
    if args.seed is not None or args.count is not None:
        print("error: --seed and --count act only with --random", file=sys.stderr)
        return 1
    if args.bathfile is None:
        print("error: provide a bath file or --random", file=sys.stderr)
        return 1
    try:
        with open(args.bathfile) as fh:
            bath = discrete.parse_bath_file(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except discrete.BathParseError as exc:
        print(f"error: {args.bathfile}: {exc}", file=sys.stderr)
        return 1
    modes = discrete.normal_modes(bath)
    f0 = discrete.free_energy_0(bath, modes, args.hbar)
    es = discrete.system_energy_0(bath, modes, args.hbar)
    rep = discrete.k_second_law(bath, modes, args.hbar)
    oracle = discrete.exact_ground_state_oracle(bath, args.hbar)
    mode_resid = max(
        abs(a - b) / b for a, b in zip(oracle.mode_frequencies, modes.frequencies)
    )
    lines = [
        f"N: {bath.n}",
        "normal_modes: " + " ".join(_fmt(w) for w in modes.frequencies),
        f"F(0): {_fmt(f0)}",
        f"E_s(0): {_fmt(es)}",
        f"K: {_fmt(rep.K)}",
        "per_mode_terms: " + " ".join(_fmt(t) for t in rep.per_mode_terms),
        "per_bath_pole_terms: " + " ".join(_fmt(t) for t in rep.per_bath_pole_terms),
        f"residue_total: {_fmt(rep.residue_total)}",
        f"oracle_mode_residual: {_fmt(mode_resid)}",
        f"oracle_E_s_residual: {_fmt(abs(oracle.E_s - es) / es)}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Full property suite: discrete invariants plus continuous cross-checks."""
    failures: list[str] = []

    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    bad_baths = 0
    for _ in range(args.baths):
        bath = discrete.random_bath(rng)
        if discrete.invariant_violations(bath, hbar=args.hbar):
            bad_baths += 1
    _check_line(failures, "discrete bath invariants", bad_baths == 0,
                f"{args.baths - bad_baths}/{args.baths} baths")

    grid_err = 0.0
    for w0 in TABLE_GRID:
        for wd in TABLE_GRID:
            kc = thermo.k_drude_closed(w0, wd, 1.0, hbar=args.hbar)
            kl = thermo.k_drude_lambda(w0, wd, 1.0, hbar=args.hbar, tol=args.tol,
                                       max_evals=args.max_evals)
            grid_err = max(grid_err, abs(kc - kl))
    _check_line(failures, "Drude closed form vs lambda integral", grid_err < 1e-6,
                f"max |diff| = {grid_err:.2e}")

    lc = thermo.limit_checks(hbar=args.hbar, tol=args.tol, max_evals=args.max_evals)
    resid = [d["residual"] for d in lc["drude"]]
    ok_drude = resid[0] > resid[1] > resid[2]
    _check_line(failures, "Drude large-cutoff limit", ok_drude,
                "residuals " + " > ".join(f"{r:.2e}" for r in resid))
    ks = [e["K"] for e in lc["exponential"]]
    ok_exp = all(a < b for a, b in zip(ks, ks[1:])) and ks[-1] < lc["exponential_limit"]
    _check_line(failures, "exponential-cutoff limit approach", ok_exp,
                f"K increases toward {lc['exponential_limit']:.6f}")

    k0 = thermo.k_cont(parse_model("ohmic g=1"), 1.0, 1.0, hbar=args.hbar)
    _check_line(failures, "Ohmic second-law deficit is zero", k0 == 0.0, f"K = {k0}")

    neg = thermo.k_cont(parse_model("xohmic g=1 p=2"), 1.0, 1.0, hbar=args.hbar)
    ok_neg = isinstance(neg, DivergenceClass) and str(neg) == "LogDivergent(-)"
    _check_line(failures, "p=2 deficit diverges negatively", ok_neg, str(neg))

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 2
    print("all checks passed")
    return 0


def _check_line(failures: list[str], name: str, ok: bool, detail: str) -> None:
    tag = "ok" if ok else "FAIL"
    print(f"[{tag}] {name}: {detail}")
    if not ok:
        failures.append(name)


def _checked(kind, ok, what: str):
    """An argparse type: ``kind`` of the text, rejected unless ``ok``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <type> value" message
    return parse


_POSITIVE_FLOAT = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "positive")
_COUNT = _checked(int, lambda v: v >= 0, "nonnegative")


def _option(name: str, **kwargs) -> tuple[str, argparse.ArgumentParser]:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, **kwargs)
    return name, parent


# the options that several subcommands share, as parent parsers built once;
# each subcommand takes only the ones it reads
_SHARED = dict((
    _option("--hbar", type=_POSITIVE_FLOAT, default=1.0),
    _option("--tol", type=_POSITIVE_FLOAT, default=DEFAULT_TOL),
    _option("--max-evals", type=_POSITIVE_INT, default=DEFAULT_MAX_EVALS,
            help="integrand evaluations per integral"),
    _option("--format", choices=("csv", "table"), default="csv"),
    _option("--out", default=None, help="write output to this path"),
    _option("--seed", type=int, default=None),
))


def _subcommand(sub, name: str, func, shared: str, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary, parents=[_SHARED[o] for o in shared.split()])
    p.set_defaults(func=func)
    return p


@functools.cache  # parse_args stores nothing on the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Zero-temperature oscillator-bath thermodynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "report", cmd_report, "--hbar --tol --max-evals --out",
                    "one continuous model")
    p.add_argument("--model", required=True, help='e.g. "drude g=1 wd=5"')
    p.add_argument("--omega0", type=float, required=True)

    grid = "--hbar --tol --max-evals --format --out"
    _subcommand(sub, "table1", cmd_table1, grid, "exponential-cutoff grid")
    _subcommand(sub, "table2", cmd_table2, grid, "Drude-family grid")
    _subcommand(sub, "fig1", cmd_fig1, "--hbar --format --out", "weakly divergent family curves")

    p = _subcommand(sub, "discrete", cmd_discrete, "--hbar --out --seed", "finite-bath report")
    p.add_argument("bathfile", nargs="?", default=None)
    p.add_argument("--random", type=_POSITIVE_INT, default=None, metavar="N",
                   help="run the invariant suite on random baths with up to N oscillators")
    p.add_argument("--count", type=_COUNT, default=None,
                   help="number of random baths (default 20)")

    p = _subcommand(sub, "check", cmd_check, "--hbar --tol --max-evals --seed",
                    "full property suite")
    p.add_argument("--baths", type=_COUNT, default=200)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NonConvergence, Inconclusive, ValueError, ArithmeticError) as exc:
        # ValueError covers bad input: InvalidModel, UnsupportedKernel,
        # DegenerateBath, BathParseError and values out of range;
        # ArithmeticError a bath whose potential matrix is not positive definite
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
