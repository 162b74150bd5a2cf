#!/usr/bin/env python3
"""Compare the numbers of this source tree with those of another checkout.

    python scripts/compare_trees.py OTHER_TREE [--seeds 1 3]

For each seed, each tree runs in a subprocess of its own (with its ``src`` on
PYTHONPATH) and reports:

* every entry of ``run_suite("all", seed)``, all fields but ``wall_time``;
* a fixed seeded set of P and f of Delta and the weight-1/2 surrogates, whose
  points cover every route: P up the imaginary axis, split at i|Im zeta|, on
  the deformed polyline and through the f <-> P bridge, and f on both
  half-planes.  A transform that raises reports its error.

Every field that differs is printed, a numeric one with its relative move
|here - there| / |there| (a transform value as one complex number).  If any
field differs, the report ends with the largest relative move of each field
kind: transform value, abs_error, and verify residual.  The exit code is 1 if
any field differs, else 0.  A refactor that claims unchanged numbers should
report nothing; one that claims rounding-level moves shows their size.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _transforms(seed: int) -> dict:
    """P and f at zetas drawn from the seed, three per route, keyed by route and zeta."""
    import numpy as np

    from maassperiods import NearlyPeriodicFunction, PeriodFunction
    from maassperiods.errors import NonconvergenceError
    from maassperiods.forms import delta_form, surrogate_form, two_sided_surrogate

    rng = np.random.default_rng(seed)

    def draw(re, im, n=3):
        sign = rng.choice([-1.0, 1.0], n)
        return rng.uniform(*re, n) + 1j * sign * rng.uniform(*im, n)

    delta, one, two = delta_form(), surrogate_form("1/2", 0.35j), two_sided_surrogate("1/2", 0.35j)
    cases = {
        "delta P axis": (PeriodFunction(delta), draw((0.1, 2.0), (0.2, 1.5))),
        "delta P bridge": (PeriodFunction(delta), draw((-1.5, -0.05), (0.2, 1.5))),
        "delta f": (NearlyPeriodicFunction(delta), draw((-1.0, 2.0), (0.25, 1.5))),
        "surrogate P axis": (PeriodFunction(one), draw((1.0, 2.0), (0.05, 0.9))),
        "surrogate P split": (PeriodFunction(one), draw((0.05, 0.5), (0.6, 1.5))),
        "surrogate P polyline": (PeriodFunction(one), draw((-1.0, -0.05), (0.3, 1.5))),
        "two-sided f": (NearlyPeriodicFunction(two), draw((-1.0, 2.0), (0.3, 1.5))),
    }
    out = {}
    for route, (transform, zetas) in cases.items():
        for i, zeta in enumerate(zetas):
            zeta = complex(zeta)
            try:
                res = transform.eval(zeta)
                fields = {
                    "value": [res.value.real, res.value.imag],
                    "abs_error": res.abs_error,
                    "evaluations": res.evaluations,
                    "contour": res.contour,
                    "tol": res.tol,
                }
            except (ValueError, ArithmeticError, NonconvergenceError) as exc:  # the library's typed errors
                fields = {"error": f"{type(exc).__name__}: {exc}"}
            out[f"{route} {i} at {zeta!r}"] = fields
    return out


def _probe(seed: int) -> dict:
    """Everything one tree reports at one seed, keyed by entry."""
    from dataclasses import asdict

    from maassperiods.verify import run_suite

    report = {}
    for entry in run_suite("all", seed=seed).entries:
        fields = asdict(entry)
        fields.pop("wall_time")
        report[f"verify {entry.identity}"] = fields
    report.update(_transforms(seed))
    return report


def _run_tree(tree: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", str(seed)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: the probe of {tree} at seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


# the field kinds whose largest relative move closes the report
KINDS = {"value": "value", "abs_error": "abs_error", "max_residual": "residual"}


def _number(v):
    """A report field as a complex number: a number, or a [re, im] value; else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(p, float) for p in v):
        return complex(*v)
    return None


def _relative(a, b):
    """|a - b| / |b| of two numeric fields, infinite against an exact zero; None unless both are numeric."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    return abs(x - y) / abs(y) if y else math.inf


def _differences(here: dict, there: dict) -> list:
    """(line, field, relative move or None) of every field that differs."""
    out = []
    for key in sorted(set(here) | set(there)):
        a, b = here.get(key), there.get(key)
        if a is None or b is None:
            out.append((f"{key}: only in {'this tree' if b is None else 'the other tree'}", None, None))
            continue
        for field in sorted(set(a) | set(b)):
            if json.dumps(a.get(field)) != json.dumps(b.get(field)):
                rel = _relative(a.get(field), b.get(field))
                moved = "" if rel is None else f", relative {rel:.1e}"
                out.append((f"{key}: {field} {a.get(field)!r} here, {b.get(field)!r} there{moved}", field, rel))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other_tree", nargs="?", help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    parser.add_argument("--probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe is not None:
        json.dump(_probe(args.probe), sys.stdout)
        return 0
    if args.other_tree is None:
        parser.error("OTHER_TREE is required")
    differing = 0
    largest = {kind: None for kind in KINDS.values()}  # (relative move, where) per kind
    for seed in args.seeds:
        found = _differences(_run_tree(ROOT, seed), _run_tree(args.other_tree, seed))
        for line, field, rel in found:
            print(f"seed {seed}: {line}")
            kind = KINDS.get(field)
            if kind and (largest[kind] is None or rel > largest[kind][0]):
                largest[kind] = (rel, f"seed {seed}: {line.split(':', 1)[0]}")
        differing += len(found)
        print(f"seed {seed}: {len(found)} differing fields")
    if differing:
        for kind, move in largest.items():
            print(f"largest relative {kind} move: " + ("none" if move is None else f"{move[0]:.1e} ({move[1]})"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
