"""Multiplier systems compatible with a half-integral weight.

A system is stored by its values on the generators S and T plus the weight;
values on arbitrary elements come from the weight-k consistency relation

    v(gd) e^{ik arg mu(gd, z)} = v(g) v(d) e^{ik arg mu(g, d z)} e^{ik arg mu(d, z)}

folded along a generator word for g at the fixed base point z0 = 2i.  The
fold telescopes: with m_j the product of the tokens right of token j, the
terms arg mu(m_j, z0) - arg mu(m_{j+1}, z0) sum to -arg mu(g, z0), and
mu(S, w) = w, mu(T^n, w) = 1 leave one arg(m_j z0) per S token, so

    v(g) = v(S)^{#S} v(T)^{sum of T powers}
           exp(ik [sum over S tokens of arg(m_j z0) - arg mu(g, z0)]).

The relation guarantees the result is independent of both the word and the
base point, which the constructor spot-checks on the defining relations
S^2 = (ST)^3 = (-1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .branch import principal_arg
from .errors import InvalidMultiplierError, InvalidWeightError
from .modgroup import GeneratorWord, GroupElement, decompose

__all__ = ["MultiplierSystem", "construct_eta_power", "construct_trivial", "parse_weight"]

BASE_POINT = 2j


def parse_weight(text) -> Fraction:
    """Parse a half-integral weight like '1/2', '12', 1.5 or Fraction(3, 2).

    A float is taken at its exact binary value, so 0.3 is rejected rather
    than rounded to the nearest half-integer.
    """
    try:
        k = Fraction(text)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidWeightError(f"weight {text!r} is not a finite number") from exc
    if (2 * k).denominator != 1:
        raise InvalidWeightError(f"weight {text!r} is not half-integral")
    return k


@dataclass(frozen=True)
class MultiplierSystem:
    """Weight-compatible multiplier, determined by its values on S and T."""

    weight: Fraction
    v_t: complex
    v_s: complex
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "weight", parse_weight(self.weight))
        self._consistency_check()

    @property
    def k(self) -> float:
        return float(self.weight)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, g: GroupElement, base_point: complex = BASE_POINT) -> complex:
        """Value on an arbitrary element, by the telescoped fold of a word for g."""
        return self._fold(decompose(g), base_point)

    def evaluate_word(self, word: GeneratorWord, base_point: complex = BASE_POINT) -> complex:
        """Fold a caller-supplied word; used to test word independence."""
        return self._fold(word, base_point)

    def __call__(self, g: GroupElement) -> complex:
        return self.evaluate(g)

    def _fold(self, word: GeneratorWord, base_point: complex) -> complex:
        # m = (a, b, c, d) is the product of the tokens folded so far
        a, b, c, d = 1, 0, 0, 1
        s_count = t_power = 0
        theta = 0.0
        for gen, power in reversed(word.tokens):
            if gen == "S":
                if power != 1:
                    raise ValueError("S tokens carry power 1")
                s_count += 1
                theta += principal_arg((a * base_point + b) / (c * base_point + d))
                a, b, c, d = -c, -d, a, b
            else:
                t_power += power
                a, b = a + power * c, b + power * d
        theta -= principal_arg(c * base_point + d)
        return self.v_s**s_count * self.v_t**t_power * cmath.exp(1j * self.k * theta)

    # -- construction-time validation ---------------------------------------

    def _consistency_check(self):
        k = self.k
        tol = 1e-10
        want_minus = cmath.exp(-1j * k * math.pi)
        # v(S)^2 must equal v((-1))
        got = self._fold(GeneratorWord((("S", 1), ("S", 1))), BASE_POINT)
        if abs(got - want_minus) > tol:
            raise InvalidMultiplierError(
                f"v(S)^2 = {got} but the weight forces v((-1)) = {want_minus}"
            )
        # (ST)^3 = (-1) as well
        got = self._fold(GeneratorWord((("S", 1), ("T", 1)) * 3), BASE_POINT)
        if abs(got - want_minus) > tol:
            raise InvalidMultiplierError(
                f"v((ST)^3) = {got} does not match v((-1)) = {want_minus}"
            )
        for value, name in ((self.v_t, "v(T)"), (self.v_s, "v(S)")):
            if abs(abs(value) - 1.0) > tol:
                raise InvalidMultiplierError(f"{name} = {value} is not unimodular")


def construct_eta_power(weight) -> MultiplierSystem:
    """The 2k-th power of the weight-1/2 eta multiplier.

    v(T) = e^{i pi k / 6} and v(S) = e^{-i pi k / 2}; raising the weight-1/2
    system to an integer power 2k keeps the consistency relation exact.
    """
    k = parse_weight(weight)
    kf = float(k)
    return MultiplierSystem(
        weight=k,
        v_t=cmath.exp(1j * math.pi * kf / 6.0),
        v_s=cmath.exp(-1j * math.pi * kf / 2.0),
        kind="eta_power",
    )


def construct_trivial(weight) -> MultiplierSystem:
    """The constant system v = 1, consistent for even integer weights."""
    k = parse_weight(weight)
    if k.denominator != 1 or k % 2 != 0:
        raise InvalidWeightError(
            f"the trivial system is only weight-compatible for even k, got {k}"
        )
    return MultiplierSystem(weight=k, v_t=1.0 + 0.0j, v_s=1.0 + 0.0j, kind="trivial")
