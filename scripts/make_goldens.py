"""Regenerate the CLI golden fixtures under tests/golden/.

Every width that ends up in a fixture is first cross-checked against the
bisection oracle; the script refuses to write anything if a check fails.
Run from anywhere: python scripts/make_goldens.py
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

from gammabw.bandwidth import GammaShapeSpec, ShapeScale, fwym
from gammabw.oracle import oracle_crossings

_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = _ROOT / "tests" / "golden"

sys.path.insert(0, str(_ROOT / "tests"))
from goldens import GOLDEN_INVOCATIONS  # noqa: E402

# (a, b, y) triples whose widths appear in the fixtures above.
WIDTH_CASES = [
    (2.0, 1.0, 0.5),
    (3.0, 2.0, 0.25),
    (3.0, 2.0, 0.5),
    (5.3182958969449894, 1.0, 0.5),
    (14.142135623730955, 1.0, 0.5),
    (37.606030930863952, 1.0, 0.5),
    (100.0, 1.0, 0.5),
]


def verify_against_oracle() -> None:
    for a, b, y in WIDTH_CASES:
        params = ShapeScale(a, b)
        lo, hi = oracle_crossings(GammaShapeSpec(params), y)
        width = fwym(params, y).width
        rel = abs(width - (hi - lo)) / (hi - lo)
        if rel > 1e-9:
            raise SystemExit(
                f"oracle disagreement at a={a}, b={b}, y={y}: rel={rel:.3e}"
            )
    exp = fwym(ShapeScale(1.0, 1.0), 0.5).width
    if abs(exp - math.log(2.0)) > 1e-15:
        raise SystemExit("exponential closed form drifted")


def main() -> None:
    verify_against_oracle()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_INVOCATIONS:
        proc = subprocess.run(
            [sys.executable, "-m", "gammabw", *argv],
            capture_output=True,
            check=True,
        )
        (GOLDEN_DIR / name).write_bytes(proc.stdout)
        print(f"wrote {name} ({len(proc.stdout)} bytes)")


if __name__ == "__main__":
    main()
