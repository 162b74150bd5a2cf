#!/usr/bin/env python3
"""Print the desk-scale golden comparison: the period function of the
weight-12 discriminant form against -22 times its period polynomial, on
both sides of the imaginary axis, together with the polynomial's exact
coefficients from the L-values."""

from maassperiods import PeriodFunction, delta_form, eichler_polynomial, period_polynomial
from maassperiods.forms import DELTA_TERMS, delta_coefficients


def main() -> None:
    delta = delta_form(DELTA_TERMS)
    period = PeriodFunction(delta)
    coeffs = (0,) + delta_coefficients(DELTA_TERMS)

    print(f"{'zeta':>10s} {'P(zeta)':>28s} {'-22 p(zeta)':>28s} {'rel diff':>10s}")
    # the last four lie in the far strip left of the imaginary axis
    for zeta in (0.5, 1.0, 2.0, 1 + 0.5j, 1 - 0.5j, 3.0, 0.25, -0.5 + 0.1j, -0.9 + 0.4j, -2 + 1.2j, -4 + 1j):
        p_val = eichler_polynomial(coeffs, 12, zeta)
        p_per = period(zeta)
        diff = abs(p_per + 22 * p_val) / (1 + abs(p_val))
        print(f"{zeta!s:>10s} {p_per:>28.12g} {-22 * p_val:>28.12g} {diff:>10.2e}")

    print("\nperiod polynomial coefficients from L-values (degree ascending):")
    for degree, c in enumerate(period_polynomial(coeffs, 12)):
        print(f"  {degree:2d}: {complex(c):+.12e}")


if __name__ == "__main__":
    main()
