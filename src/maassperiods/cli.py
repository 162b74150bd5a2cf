"""Command-line entry point: verification suites and table emitters."""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys

import numpy as np

from .config import Settings
from .errors import DomainError, NonconvergenceError
from .forms import DELTA_TERMS, delta_coefficients, surrogate_form
from .multiplier import InvalidWeightError, parse_weight
from .periods import PeriodFunction, eichler_polynomial, growth_check, period_polynomial
from .verify import EXPECTED_FAILURES, SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a pre-subcommand occurrence from being clobbered by
    # the subparser's default when the option appears only once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON settings file")
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for sampled checks"
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="write the report or table to this path"
    )

    parser = argparse.ArgumentParser(
        prog="maassperiods",
        description="numerical transforms from Maass cusp forms to period functions",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run an identity verification suite", parents=[common]
    )
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=sorted(SUITES) + ["all"],
    )
    p_verify.add_argument(
        "--weight", help="of the per-weight identities, run only those at 1/2, 3/2 or 12"
    )

    p_poly = sub.add_parser(
        "period-poly", help="tabulate the classical period polynomial", parents=[common]
    )
    p_poly.add_argument("--samples", type=int, default=11, help="sample rows on [0.5, 2.5]")

    p_pf = sub.add_parser(
        "period-function", help="tabulate a period function on a grid", parents=[common]
    )
    p_pf.add_argument("--weight", required=True)
    p_pf.add_argument("--nu", required=True, help="spectral parameter, e.g. 0.35i or 0.1+0.2i")
    p_pf.add_argument("--multiplier", choices=["trivial", "eta-power"], default="eta-power")
    p_pf.add_argument(
        "--grid",
        default="0.25:4:16",
        help="real grid start:stop:count, with optional ,IM offset; "
        "write a negative start as --grid=-3:...",
    )

    p_table = sub.add_parser("table", help="emit a derived report", parents=[common])
    p_table.add_argument("--what", required=True, choices=["growth"])
    p_table.add_argument("--weight", default="1/2")
    p_table.add_argument("--nu", default="0.35i")
    return parser


def _load_settings(args) -> Settings:
    config = getattr(args, "config", None)
    return Settings.from_json(config) if config else Settings()


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_nu(text: str) -> complex:
    return complex(text.replace(" ", "").replace("i", "j"))


def _cmd_verify(args, settings: Settings) -> int:
    report = run_suite(args.suite, settings, seed=getattr(args, "seed", 0), weight=args.weight)
    payload = report.to_json()
    payload["expected_failures"] = sorted(
        e["identity"] for e in payload["entries"] if e["identity"] in EXPECTED_FAILURES
    )
    _emit(json.dumps(payload, indent=2) + "\n", args)
    return 1 if report.unexpected_failures else 0


def _cmd_period_poly(args, settings: Settings) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    coeffs = (0,) + delta_coefficients(DELTA_TERMS)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["zeta", "re_p", "im_p"])
    for x in np.linspace(0.5, 2.5, args.samples):
        val = eichler_polynomial(coeffs, 12, complex(x))
        writer.writerow([f"{x:.12g}", f"{val.real:.12e}", f"{val.imag:.12e}"])
    writer.writerow([])
    writer.writerow(["degree", "re_coeff", "im_coeff"])
    for i, c in enumerate(period_polynomial(coeffs, 12)):
        writer.writerow([i, f"{c.real:.12e}", f"{c.imag:.12e}"])
    _emit(buf.getvalue(), args)
    return 0


def _cmd_period_function(args, settings: Settings) -> int:
    span, *im = args.grid.split(",")
    *ends, count = span.split(":")
    if len(ends) == 2 and not (count.strip().isdecimal() and int(count) >= 1):
        raise ValueError(f"--grid count must be a positive integer in start:stop:count[,IM], got {count!r}")
    try:
        (start, stop), (offset,) = ends, im or ["0"]
        start, stop, offset = float(start), float(stop), float(offset)
    except ValueError:
        raise ValueError(f"--grid expects start:stop:count[,IM], got {args.grid!r}") from None
    for end in (start, stop):
        # before linspace, which turns an infinite end into NaN points
        if not cmath.isfinite(zeta := complex(end, offset)):
            raise DomainError(f"--grid point zeta = {zeta} is not finite")
    if not cmath.isfinite(stop - start):
        raise ValueError(f"--grid stop - start overflows in start:stop:count[,IM], got {args.grid!r}")
    xs = np.linspace(start, stop, int(count))
    weight = parse_weight(args.weight)
    nu = _parse_nu(args.nu)
    if args.multiplier == "trivial":
        from .multiplier import construct_trivial

        form = surrogate_form(weight, nu, multiplier=construct_trivial(weight))
    else:
        form = surrogate_form(weight, nu)
    period = PeriodFunction(form, settings)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["re_zeta", "im_zeta", "re_P", "im_P", "abs_error"])
    for x in xs:
        res = period.eval(complex(x, offset))
        writer.writerow(
            [
                f"{x:.12g}",
                f"{offset:.12g}",
                f"{res.value.real:.12e}",
                f"{res.value.imag:.12e}",
                f"{res.abs_error:.3e}",
            ]
        )
    _emit(buf.getvalue(), args)
    return 0


def _cmd_table(args, settings: Settings) -> int:
    form = surrogate_form(parse_weight(args.weight), _parse_nu(args.nu))
    report = growth_check(PeriodFunction(form, settings))
    payload = {
        "what": "growth",
        "weight": str(args.weight),
        "nu": [form.nu.real, form.nu.imag],
        "slope_at_zero": report.slope_at_zero,
        "slope_at_infinity": report.slope_at_infinity,
        "bound_at_zero": report.bound_at_zero,
        "bound_at_infinity": report.bound_at_infinity,
        "slack": report.slack,
        "pass": report.passes,
        "samples": report.samples,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args)
    return 0 if report.passes else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        settings = _load_settings(args)
        if args.command == "verify":
            return _cmd_verify(args, settings)
        if args.command == "period-poly":
            return _cmd_period_poly(args, settings)
        if args.command == "period-function":
            return _cmd_period_function(args, settings)
        if args.command == "table":
            return _cmd_table(args, settings)
        parser.error(f"unknown command {args.command!r}")
    except (OSError, ValueError, KeyError, InvalidWeightError, DomainError, NonconvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
