"""Command-line front end.

Every module is exposed as a subcommand emitting CSV (default) or JSON with
round-trip-exact float formatting.  Grid arguments use the a:b:n syntax
(inclusive endpoints, n points).  Exit codes: 0 success / all verdicts pass,
1 usage error, 2 verdict failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import bounds, chaos, pearson, stein, verify
from .errors import SteintailError
from .pearson import PearsonCoefficients, build_law


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1; "-" then a digit or "inf" starts a value (-1:1:3, -inf)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf)", re.IGNORECASE)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> np.ndarray:
    try:
        a_s, b_s, n_s = text.split(":")
        a, b, n = float(a_s), float(b_s), int(n_s)
    except ValueError:
        raise SteintailError(f"grid must be a:b:n, got {text!r}") from None
    if n < 1 or not b >= a:
        raise SteintailError(f"grid needs b >= a and n >= 1, got {text!r}")
    return np.linspace(a, b, n)


def _parse_coeff_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise SteintailError(f"coefficients must be comma-separated numbers, got {text!r}") from None


def _add_coeff_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    for name in ("--alpha", "--beta", "--gamma"):
        p.add_argument(name, type=float, required=required)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _coeffs(args) -> PearsonCoefficients:
    return PearsonCoefficients(args.alpha, args.beta, args.gamma)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(args, header: list[str], rows: list[tuple]) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(payload) + "\n")
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else (repr(v) if isinstance(v, float) else str(v))
                              for v in row))
    _emit(args, "\n".join(lines) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="steintail")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[], help="name the canonical case of a coefficient triple")
    _add_coeff_args(p)

    p = sub.add_parser("law", help="emit the classified law as JSON")
    _add_coeff_args(p)
    p.add_argument("--output", default=None)

    for name in ("density", "tail", "quantile"):
        p = sub.add_parser(name, help=f"evaluate the {name} pointwise or on a grid")
        _add_coeff_args(p)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--at", type=float)
        g.add_argument("--grid", type=str)
        _add_output_args(p)

    p = sub.add_parser("moments", help="moments by the exact recursion")
    _add_coeff_args(p)
    p.add_argument("--max-order", type=int, required=True)
    _add_output_args(p)

    p = sub.add_parser("stein", help="indicator Stein solution on a grid, with certificate")
    _add_coeff_args(p)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--grid", type=str, default=None, help="defaults to the certification grid")
    _add_output_args(p)

    p = sub.add_parser("envelope", help="finite-z tail envelope on a grid")
    _add_coeff_args(p)
    p.add_argument("--grid", type=str, required=True)
    _add_output_args(p)

    p = sub.add_parser("bounds", help="certified lower/upper tail bounds on a z grid")
    _add_coeff_args(p)
    p.add_argument("--z-grid", type=str, required=True)
    p.add_argument("--c", type=float, default=4.0)
    p.add_argument("--K", type=float, default=None)
    _add_output_args(p)

    p = sub.add_parser("chaos-g", help="Malliavin G of a Hermite series; optional dominance check")
    p.add_argument("--coeffs", type=str, required=True, help="c0,c1,... in the Hermite basis")
    _add_coeff_args(p, required=False)
    p.add_argument("--grid", type=str, default=None, help="emit sampled CSV (n, G(n))")
    p.add_argument("--density-grid", type=str, default=None, help="emit sampled CSV (x, rho_X(x))")
    _add_output_args(p)

    p = sub.add_parser("verify", help="run a scenario file and report verdicts")
    p.add_argument("--scenario", type=str, required=True)
    _add_output_args(p)

    p = sub.add_parser("asym", help="tail-slope fit against the law's asymptotic exponent")
    _add_coeff_args(p)
    p.add_argument("--mode", choices=("loglog", "loglinear", "stretched"), required=True)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--z-grid", type=str, required=True)
    _add_output_args(p)

    return parser


def _cmd_classify(args) -> int:
    print(pearson.classify(_coeffs(args)).value)
    return 0


def _cmd_law(args) -> int:
    _emit(args, pearson.law_to_json(build_law(_coeffs(args))) + "\n")
    return 0


def _cmd_pointwise(args) -> int:
    law = build_law(_coeffs(args))
    fn = {"density": pearson.density, "tail": pearson.tail, "quantile": pearson.quantile}[args.command]
    xs = np.array([args.at]) if args.grid is None else _parse_grid(args.grid)
    name_in = "p" if args.command == "quantile" else "x"
    _table(args, [name_in, args.command], list(zip(xs.tolist(), fn(law, xs).tolist())))
    return 0


def _cmd_moments(args) -> int:
    c = _coeffs(args)
    rows = []
    for m in range(args.max_order + 1):
        if pearson.moment_exists(c, m):
            rows.append((m, float(pearson.moment(c, m))))
        else:
            rows.append((m, None))
    _table(args, ["order", "moment"], rows)
    return 0


def _cmd_stein(args) -> int:
    law = build_law(_coeffs(args))
    sol = stein.solve_indicator(law, args.z)
    grid = stein.certification_grid(law, args.z, 500) if args.grid is None else _parse_grid(args.grid)
    grid = np.asarray(grid[grid != args.z], dtype=float)
    f, fp, res = stein.evaluate(sol, grid)
    cert = stein.certify_fprime(sol, grid)
    header, rows = ["x", "f", "fprime", "residual"], list(zip(*(v.tolist() for v in (grid, f, fp, res))))
    if args.format == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows], "certificate": json.loads(cert.to_json())}
        _emit(args, json.dumps(payload) + "\n")
    else:
        _table(args, header, rows)
        print(f"residual_max={cert.residual_max!r} sign_violations={cert.sign_violations} "
              f"passed={cert.passed}", file=sys.stderr)
    return 0 if cert.passed else 2


def _cmd_envelope(args) -> int:
    law = build_law(_coeffs(args))
    zs = _parse_grid(args.grid)
    lo, hi = bounds.phi_envelope(law, zs)
    target = np.where(zs >= 0.0, pearson.tail(law, zs), pearson.cdf(law, zs))
    _table(args, ["z", "lower", "tail", "upper"], list(zip(*(v.tolist() for v in (zs, lo, target, hi)))))
    return 0


def _cmd_bounds(args) -> int:
    c = _coeffs(args)
    law = build_law(c)
    zs = _parse_grid(args.z_grid)
    lo, hi = bounds.phi_envelope(law, zs)
    plb, _ = bounds.pearson_lower(law, zs, args.c)
    t = pearson.tail(law, zs)
    if args.K is None and c.alpha >= 0.5:  # no admissible default K
        k_t = [None] * zs.size
    else:  # K Phi with K given or the statement table's default
        (k_phi,), _ = bounds.statement_table(None, law, zs, None, k=args.K)
        k_t = k_phi.value.tolist()
    rows = list(zip(*(v.tolist() for v in (zs, t, lo, hi, plb)), k_t))
    _table(args, ["z", "phi_star", "envelope_lo", "envelope_hi", "pearson_lower", "k_phi_star"], rows)
    return 0


def _format_polynomial(coeffs: tuple[float, ...]) -> str:
    """Monomial coefficients low to high as text, zero terms left out: (1, -1, 0, 2) is '1 - N + 2*N^3'."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0.0 and len(coeffs) > 1:
            continue
        base = "N" if k == 1 else f"N^{k}"
        if k == 0:
            terms.append(f"{c:g}")
        elif c == 1.0:
            terms.append(base)
        elif c == -1.0:
            terms.append(f"-{base}")
        else:
            terms.append(f"{c:g}*{base}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _cmd_chaos_g(args) -> int:
    reference = (args.alpha, args.beta, args.gamma)
    if None in reference and reference != (None, None, None):
        raise SteintailError("the dominance check needs all three of --alpha, --beta and --gamma")
    series = chaos.HermiteSeries(_parse_coeff_list(args.coeffs))
    g = chaos.malliavin_G(series)
    print(_format_polynomial(g))
    if None not in reference:
        margin, arg = chaos.dominance_margin(series, PearsonCoefficients(*reference))
        print(f"dominance_margin={margin!r} at n={arg!r}")
    if args.grid is not None:
        ns = _parse_grid(args.grid)
        _table(args, ["n", "G"], list(zip(ns.tolist(), npoly.polyval(ns, g).tolist())))
    if args.density_grid is not None:
        xs = _parse_grid(args.density_grid)
        _table(args, ["x", "rho"], list(zip(xs.tolist(), chaos.law_of_polynomial(series).density(xs).tolist())))
    return 0


def _cmd_verify(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        spec = verify.scenario_from_json(fh.read())
    report = verify.run_scenario(spec)
    _emit(args, report.to_json() + "\n" if args.format == "json" else report.to_csv())
    return 0 if report.all_passed else 2


def _cmd_asym(args) -> int:
    law = build_law(_coeffs(args))
    zs = _parse_grid(args.z_grid)
    lt = pearson.log_tail(law, zs)
    slope = verify.slope_estimate(zs, lt, args.mode, p=args.p)
    row = {"mode": args.mode, "p": args.p, "slope": slope}
    if args.format == "json":
        _emit(args, json.dumps(row) + "\n")
    else:
        _table(args, ["mode", "p", "slope"], [(args.mode, float(args.p), float(slope))])
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "law": _cmd_law,
    "density": _cmd_pointwise,
    "tail": _cmd_pointwise,
    "quantile": _cmd_pointwise,
    "moments": _cmd_moments,
    "stein": _cmd_stein,
    "envelope": _cmd_envelope,
    "bounds": _cmd_bounds,
    "chaos-g": _cmd_chaos_g,
    "verify": _cmd_verify,
    "asym": _cmd_asym,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SteintailError, OSError) as exc:
        print(f"steintail {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
