"""Run configuration shared by the transforms, the verifier and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict


@dataclass
class Settings:
    """Tolerances, truncations and grid defaults.

    ``quad_tol`` is the relative quadrature target: each contour piece aims
    at ``quad_tol`` times its own integral of |phi|.  Each verified
    identity carries its own tolerance (see ``verify``).
    """

    quad_tol: float = 1e-10
    max_evals: int = 2_000_000
    q_terms: int = 50
    growth_exponents: tuple = (3, 10)

    @classmethod
    def from_json(cls, path) -> "Settings":
        with open(path) as handle:
            data = json.load(handle)
        known = {f: data[f] for f in data if f in cls.__dataclass_fields__}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "growth_exponents" in known:
            known["growth_exponents"] = tuple(known["growth_exponents"])
        return cls(**known)

    def to_json(self) -> dict:
        data = asdict(self)
        data["growth_exponents"] = list(self.growth_exponents)
        return data


DEFAULTS = Settings()
