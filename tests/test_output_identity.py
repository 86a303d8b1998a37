"""The sweep of scripts/output_identity.py, which compares every public
output with a git revision's, is fixed: two runs on the working tree give
the same lines, and every public function of the four modules is called.
Its bands of r, which it states itself, match the Lambert kernel's map of
the pieces of a cut. The working tree's sweep is the committed one,
tests/sweep.txt, line for line, so that every output move is a reviewed
diff of that file."""

import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import gammabw
from gammabw import bandwidth, gamma2, lambertw, oracle
from gammabw.lambertw import Branch

SRC = Path(gammabw.__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_identity.py"
GOLDEN = Path(__file__).resolve().with_name("sweep.txt")


def load_script():
    spec = importlib.util.spec_from_file_location("output_identity", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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


def test_sweep_is_the_committed_sweep():
    # python3 -S scripts/output_identity.py --sweep src > tests/sweep.txt
    # regenerates it; review the diff of that file before committing it
    committed = GOLDEN.read_text(encoding="utf-8").splitlines()
    difference = load_script().first_difference(committed, sweep(), "tests/sweep.txt")
    assert not difference, difference


def test_bands_sample_every_piece_of_the_kernels_map():
    # the open interval of each band, and of the log-form draws, lies inside
    # one piece of each branch (the pieces are intervals, so its two
    # innermost doubles tell), one of them the band's name, and every piece
    # of each branch is sampled: a moved seam fails here
    script = load_script()
    bands = [*script.R_BANDS, ("log-form", *script.LOG_FORM_R)]
    sampled = {branch: set() for branch in Branch}
    for name, lo, hi in bands:
        inner = (math.nextafter(lo, 0.0), math.nextafter(hi, -math.inf))
        for branch in Branch:
            pieces = {lambertw._piece(branch, r) for r in inner}
            assert len(pieces) == 1, (name, branch, pieces)
            sampled[branch] |= pieces
        assert name in {lambertw._piece(branch, inner[0]) for branch in Branch}, name
    for branch in Branch:
        assert sampled[branch] == {name for name, _, _ in lambertw._PIECES[branch]}, branch
