"""Regenerate the CLI golden fixtures under tests/golden/.

Every width that ends up in a fixture is first checked against the
crossing oracle, the certified Newton solve of `oracle_offsets`, by
`python -m gammabw fwhm --verify`; the script refuses to write anything if
a check fails. Run from anywhere:
python scripts/make_goldens.py
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = _ROOT / "tests" / "golden"

sys.path.insert(0, str(_ROOT / "tests"))
from goldens import GOLDEN_INVOCATIONS  # noqa: E402

# (a, b, y) triples whose widths appear in the fixtures above.
WIDTH_CASES = [
    (1.0, 1.0, 0.5),
    (2.0, 1.0, 0.5),
    (3.0, 2.0, 0.25),
    (3.0, 2.0, 0.5),
    (5.3182958969449894, 1.0, 0.5),
    (14.142135623730955, 1.0, 0.5),
    (37.606030930863952, 1.0, 0.5),
    (100.0, 1.0, 0.5),
]


def run_gammabw(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gammabw", *argv], capture_output=True)


def verify_against_oracle() -> None:
    for a, b, y in WIDTH_CASES:
        argv = ["fwhm", "--a", repr(a), "--b", repr(b), "--y", repr(y), "--verify", "--format", "json"]
        # exit 3, a discrepancy above 1e-8, still writes the record
        proc = run_gammabw(argv)
        if not proc.stdout:
            raise SystemExit(f"gammabw {' '.join(argv)} failed: {proc.stderr.decode()}")
        rel = json.loads(proc.stdout)["relative_discrepancy"]
        if rel > 1e-9:
            raise SystemExit(f"oracle disagreement at a={a}, b={b}, y={y}: rel={rel:.3e}")


def main() -> None:
    verify_against_oracle()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_INVOCATIONS:
        proc = run_gammabw(argv)
        proc.check_returncode()
        (GOLDEN_DIR / name).write_bytes(proc.stdout)
        print(f"wrote {name} ({len(proc.stdout)} bytes)")


if __name__ == "__main__":
    main()
