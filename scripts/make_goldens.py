"""Regenerate the CLI golden fixtures under tests/golden/.

Every width that ends up in a fixture, found from the manifest's argv, is
first checked against the crossing oracle, the certified Newton solve of
`oracle_offsets`, by `python -m gammabw fwhm --verify`; the script refuses
to write anything if a check fails. Run from anywhere:
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


def run_gammabw(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gammabw", *argv], capture_output=True)


def option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    """The value that argv gives flag, or default."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def width_cases() -> list[tuple[float, float, float]]:
    """The (a, b, y) of every width in the fixtures, read from the manifest:
    each fwhm and octave argv's own cut, each curve argv's at y = 1/2 (its
    fwhm fields), and (a, 1, 1/2) for each shape a compare argv writes in
    json."""
    cases = set()
    for _, argv in GOLDEN_INVOCATIONS:
        if argv[0] == "compare":
            i = argv.index("--format") if "--format" in argv else len(argv)
            proc = run_gammabw([*argv[:i], *argv[i + 2:], "--format", "json"])
            proc.check_returncode()
            cases |= {(a, 1.0, 0.5) for a in json.loads(proc.stdout)["a"]}
        else:
            y = 0.5 if argv[0] == "curve" else float(option(argv, "--y", "0.5"))
            cases.add((float(option(argv, "--a")), float(option(argv, "--b")), y))
    return sorted(cases)


def verify_against_oracle() -> None:
    for a, b, y in width_cases():
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
