"""Multiplier systems compatible with a half-integral weight.

A system is stored by its values on the generators S and T plus the weight;
values on arbitrary elements are produced by folding the weight-k
consistency relation

    v(gd) e^{ik arg mu(gd, z)} = v(g) v(d) e^{ik arg mu(g, d z)} e^{ik arg mu(d, z)}

letter by letter along a generator word, at the fixed base point z0 = 2i.
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
from .modgroup import (
    MINUS_ONE,
    GeneratorWord,
    GroupElement,
    IDENTITY,
    decompose,
    moebius,
    mu,
    token_matrix,
)

__all__ = ["MultiplierSystem", "construct_eta_power", "construct_trivial", "parse_weight"]

BASE_POINT = 2j


def parse_weight(text) -> Fraction:
    """Parse a half-integral weight like '1/2', '12' or 1.5."""
    if isinstance(text, Fraction):
        k = text
    elif isinstance(text, str):
        k = Fraction(text)
    else:
        k = Fraction(text).limit_denominator(2)
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
        """Value on an arbitrary element, by cocycle folding of a word for g."""
        word, sign = decompose(g)
        return self._fold(word, sign, base_point)

    def evaluate_word(
        self, word: GeneratorWord, sign: int = 1, base_point: complex = BASE_POINT
    ) -> complex:
        """Fold a caller-supplied word; used to test word independence."""
        return self._fold(word, sign, base_point)

    def __call__(self, g: GroupElement) -> complex:
        return self.evaluate(g)

    def _fold(self, word: GeneratorWord, sign: int, base_point: complex) -> complex:
        k = self.k
        m = IDENTITY
        value = 1.0 + 0.0j
        # fold right to left so each step prepends one token
        for gen, power in reversed(tuple(word)):
            left = token_matrix(gen, power)
            v_left = self._generator_value(gen, power)
            value = v_left * value * self._cocycle_phase(left, m, base_point)
            m = left * m
        if sign == -1:
            v_minus = cmath.exp(-1j * k * math.pi)
            value = v_minus * value * self._cocycle_phase(MINUS_ONE, m, base_point)
            m = MINUS_ONE * m
        return value

    def _cocycle_phase(
        self, left: GroupElement, right: GroupElement, base_point: complex
    ) -> complex:
        """exp(ik [arg mu(l, r z0) + arg mu(r, z0) - arg mu(lr, z0)])."""
        if left.c == 0 and left.a == 1:
            # mu(T^m, .) = 1 and the bottom row of T^m r equals that of r
            return 1.0 + 0.0j
        theta = (
            principal_arg(mu(left, moebius(right, base_point)))
            + principal_arg(mu(right, base_point))
            - principal_arg(mu(left * right, base_point))
        )
        return cmath.exp(1j * self.k * theta)

    def _generator_value(self, gen: str, power: int) -> complex:
        if gen == "S":
            if power != 1:
                raise ValueError("S tokens carry power 1")
            return self.v_s
        if power >= 0:
            return self.v_t**power
        return (1.0 / self.v_t) ** (-power)

    # -- construction-time validation ---------------------------------------

    def _consistency_check(self):
        k = self.k
        tol = 1e-10
        want_minus = cmath.exp(-1j * k * math.pi)
        # v(S)^2 must equal v((-1))
        got = self._fold(GeneratorWord((("S", 1), ("S", 1))), 1, BASE_POINT)
        if abs(got - want_minus) > tol:
            raise InvalidMultiplierError(
                f"v(S)^2 = {got} but the weight forces v((-1)) = {want_minus}"
            )
        # (ST)^3 = (-1) as well
        got = self._fold(
            GeneratorWord((("S", 1), ("T", 1)) * 3), 1, BASE_POINT
        )
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
