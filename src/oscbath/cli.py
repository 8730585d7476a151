"""Command-line front end.

Commands: ``report`` (one continuous model), ``table1`` / ``table2`` /
``fig1`` (the reference grids as CSV or aligned text), ``discrete`` (exact
finite-bath report or seeded random invariant suite), and ``check`` (the
full property suite). Exit codes: 0 success, 1 usage or input error or an
integral that misses its tolerance within its budget, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import discrete, thermo
from .quadrature import DEFAULT_MAX_EVALS, DivergenceClass, Inconclusive, NonConvergence
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
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_report(args: argparse.Namespace) -> int:
    try:
        model = parse_model(args.model)
        rep = thermo.thermo_report(
            model, args.mass, args.omega0, hbar=args.hbar, tol=args.tol,
            max_evals=args.max_evals,
        )
    except ValueError as exc:
        # InvalidModel, UnsupportedKernel and bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    lines.append(f"error_estimate: {_fmt(rep.error_estimate)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
        rng = np.random.default_rng(args.seed)
        failures = 0
        for i in range(args.count):
            bath = discrete.random_bath(rng, n_max=args.random)
            violations = discrete.invariant_violations(bath, hbar=args.hbar)
            if violations:
                failures += 1
                for v in violations:
                    print(f"bath {i} (N={bath.n}): {v}")
        print(f"random suite: {args.count - failures}/{args.count} baths pass")
        return 0 if failures == 0 else 2
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
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=1.0)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--max-evals", type=int, default=DEFAULT_MAX_EVALS,
                        help="integrand evaluations per integral (report, table1, table2, check)")
    common.add_argument("--format", choices=("csv", "table"), default="csv")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--seed", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Zero-temperature oscillator-bath thermodynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", parents=[common], help="one continuous model")
    p.add_argument("--model", required=True, help='e.g. "drude g=1 wd=5"')
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--mass", type=float, default=1.0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("table1", parents=[common], help="exponential-cutoff grid")
    p.set_defaults(func=cmd_table1)
    p = sub.add_parser("table2", parents=[common], help="Drude-family grid")
    p.set_defaults(func=cmd_table2)
    p = sub.add_parser("fig1", parents=[common], help="weakly divergent family curves")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("discrete", parents=[common], help="finite-bath report")
    p.add_argument("bathfile", nargs="?", default=None)
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="run the invariant suite on random baths with up to N oscillators")
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_discrete)

    p = sub.add_parser("check", parents=[common], help="full property suite")
    p.add_argument("--baths", type=int, default=200)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NonConvergence, Inconclusive) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
