"""Run configuration shared by the transforms, the verifier and the CLI."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Settings:
    """The quadrature tolerance and evaluation budget.

    ``quad_tol`` is the relative quadrature target: each contour piece aims
    at ``quad_tol`` times its own integral of |phi|.  ``max_evals`` caps the
    integrand evaluations of one integral.  Each verified identity carries
    its own tolerance (see ``verify``).
    """

    quad_tol: float = 1e-10
    max_evals: int = 2_000_000

    def __post_init__(self):
        tol = self.quad_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < 1.0:
            raise ValueError(f"quad_tol must be a real number in (0, 1), got {tol!r}")
        cap = self.max_evals
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"max_evals must be an integer >= 1, got {cap!r}")

    @classmethod
    def from_json(cls, path) -> "Settings":
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"a config file holds a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> dict:
        return asdict(self)


DEFAULTS = Settings()
