"""The sweep of scripts/output_identity.py, which compares every public
output with a git revision's, is fixed: two runs on the working tree give
the same lines, and every public function of the four modules is called."""

import re
import subprocess
import sys
from pathlib import Path

import gammabw
from gammabw import bandwidth, gamma2, lambertw, oracle

SRC = Path(gammabw.__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_identity.py"


def sweep():
    done = subprocess.run(
        [sys.executable, "-S", str(SCRIPT), "--sweep", str(SRC)],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


def test_sweep_is_repeatable_and_covers_every_public_function():
    first = sweep()
    assert first
    assert sweep() == first
    called = {re.match(r"(\w+)\(", line).group(1) for line in first}
    # the branch selector and the oracle's error are arguments and outputs
    for module in (lambertw, bandwidth, gamma2, oracle):
        for name in set(module.__all__) - {"Branch", "BracketError"}:
            assert name in called, name
    # values and errors both: each line is `call = value` or `call ! Type: message`
    assert all(" = " in line or " ! " in line for line in first)
    assert any(" ! ValueError: " in line for line in first)
