"""Time a fixed list of calls on a git revision's gammabw and on the working
tree's, in alternating pairs of fresh interpreters.

    python3 scripts/ab_timing.py [--pairs N] REV
        take src/ of the git revision REV with git archive into a temporary
        directory (archive_src), then run N pairs (default 10) of
        `python -S` children, one on each tree, the revision's first in
        even pairs and the working tree's first in odd ones. Each child
        times every call of the list. For each call print each tree's
        median and quartiles over its children, in microseconds per call,
        the pairs the working tree won and the verdict.
    python3 -S scripts/ab_timing.py --time SRC
        the child: time each call on the package under the directory SRC and
        print one line per call, its name and microseconds per call.

A child times a call with timeit (garbage collection off): the best of
REPEATS runs, each of as many calls as fill about REPEAT_S seconds. Its
stdout is a sink that drops what it is given, so that a record or main()
pays its formatting and not a terminal's. A pair is won by the faster
child; a tie counts for neither tree. The verdict names a gain, "faster",
only from 10 pairs on, when the working tree wins at least 9 in 10 of them
and its median lies below the revision's by more than the revision's
quartile spread; "slower" is the same rule the other way. Standard library
only.
"""

import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import timeit
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parents[1]
REPEATS = 5
REPEAT_S = 0.005
MIN_PAIRS = 10
WIN_SHARE = 0.9

FORMATS = ("csv", "json", "plain")
VERIFY_ARGV = ["fwhm", "--a", "3.0", "--b", "2.0", "--y", "0.5", "--verify", "--format"]
RECORD_FIELDS = ("width", "x_low", "x_high", "mode", "oracle_width", "relative_discrepancy")
# r of one cut on each piece of the Lambert kernel's map, lambertw._PIECES,
# named by the principal branch's piece and the secondary branch's
CUT_R = (
    ("offsets/offsets", -0.01),
    ("v-form/v-form", -0.5),
    ("step/step", -3.0),
    ("step/de-bruijn", -100.0),
    ("log-form/de-bruijn", -1000.0),
)


def calls() -> list[tuple[str, str]]:
    """(name, statement) of each timed call; the statement reads names()."""
    out = [("cli._plain_args fwhm --verify", "_plain_args(ARGV_json)")]
    out += [(f"cli._emit_record {fmt}", f"_emit_record(*RECORD_{fmt})") for fmt in FORMATS]
    out += [(f"cli.main fwhm --verify --format {fmt}", f"main(ARGV_{fmt})") for fmt in FORMATS]
    out.append(("bandwidth.fwym", "fwym(PARAMS, 0.5)"))
    out += [(f"lambertw._cut {pieces}", f"_cut({r!r}, 2.0)") for pieces, r in CUT_R]
    out.append(("oracle.oracle_offsets", "oracle_offsets(3.0, 0.5)"))
    return out


def names(src: str) -> dict[str, object]:
    """The names the statements of calls() read, from the package under src."""
    sys.path.insert(0, src)
    from gammabw import cli, lambertw
    from gammabw.bandwidth import ShapeScale, fwym
    from gammabw.oracle import oracle_offsets

    params = ShapeScale(3.0, 2.0)
    res = fwym(params, 0.5)
    values = (res.width, res.x_low, res.x_high, res.mode, res.width, 0.0)
    ns = {
        "_plain_args": cli._plain_args,
        "_emit_record": cli._emit_record,
        "main": cli.main,
        "fwym": fwym,
        "PARAMS": params,
        "_cut": lambertw._cut,
        "oracle_offsets": oracle_offsets,
    }
    for fmt in FORMATS:
        ns[f"ARGV_{fmt}"] = [*VERIFY_ARGV, fmt]
        ns[f"RECORD_{fmt}"] = (RECORD_FIELDS, values, fmt)
    return ns


def time_call(stmt: str, ns: dict[str, object]) -> float:
    """Microseconds per run of stmt: the best of REPEATS timings."""
    timer = timeit.Timer(stmt, globals=ns)
    number, elapsed = 1, timer.timeit(1)
    while elapsed < REPEAT_S / 10:
        number *= 10
        elapsed = timer.timeit(number)
    number = max(1, round(number * REPEAT_S / elapsed))
    return min(timer.repeat(REPEATS, number)) / number * 1e6


class Sink:
    """A text stream that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def time_calls(src: str) -> list[str]:
    """One line per call, "name<TAB>microseconds", timed on the package under src."""
    ns = names(src)
    out = sys.stdout
    sys.stdout = Sink()
    try:
        return [f"{name}\t{time_call(stmt, ns)!r}" for name, stmt in calls()]
    finally:
        sys.stdout = out


def child(src: Path) -> dict[str, float]:
    """Microseconds per call by name, from a python -S child on the package under src."""
    done = subprocess.run(
        [sys.executable, "-S", str(SCRIPT), "--time", str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    return {name: float(us) for name, us in (line.split("\t") for line in done.stdout.splitlines())}


def run_pairs(theirs: Path, ours: Path, pairs: int) -> tuple[list[dict], list[dict]]:
    """Each tree's children, pair by pair: theirs first in even pairs."""
    runs: tuple[list[dict], list[dict]] = ([], [])
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {side: child((theirs, ours)[side]) for side in order}
        for side in (0, 1):
            runs[side].append(got[side])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(theirs: list[float], ours: list[float]) -> tuple[int, str]:
    """(pairs ours won, "faster", "slower" or "-") of one call's paired times."""
    wins = sum(o < t for t, o in zip(theirs, ours))
    losses = sum(o > t for t, o in zip(theirs, ours))
    q1, median, q3 = quartiles(theirs)
    gap = median - quartiles(ours)[1]
    if len(theirs) >= MIN_PAIRS:
        if wins >= WIN_SHARE * len(theirs) and gap > q3 - q1:
            return wins, "faster"
        if losses >= WIN_SHARE * len(theirs) and -gap > q3 - q1:
            return wins, "slower"
    return wins, "-"


def report(theirs: Path, ours: Path, label: str, pairs: int) -> list[str]:
    """The table of run_pairs(theirs, ours, pairs), theirs named label."""
    runs = run_pairs(theirs, ours, pairs)
    version = ".".join(map(str, sys.version_info[:3]))
    lines = [
        f"python {version}, {pairs} pairs; microseconds per call, median [q1, q3]",
        f"{'call':42} {label:24} {'working tree':24} {'wins':>5}  verdict",
    ]
    for name, _ in calls():
        times = [[run[name] for run in side] for side in runs]
        cells = ["{1:.3f} [{0:.3f}, {2:.3f}]".format(*quartiles(t)) for t in times]
        wins, says = verdict(*times)
        lines.append(f"{name:42} {cells[0]:24} {cells[1]:24} {wins:>2}/{pairs:<2}  {says}")
    return lines


def archive_src(rev: str, dest: str) -> Path:
    """src/ of the git revision rev, extracted under the directory dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return Path(dest) / "src"


def compare(rev: str, pairs: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = report(archive_src(rev, tmp), ROOT / "src", rev, pairs)
    print("\n".join(lines))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--time":
        sys.stdout.write("".join(f"{line}\n" for line in time_calls(argv[1])))
        return 0
    pairs = MIN_PAIRS
    if len(argv) == 3 and argv[0] == "--pairs" and argv[1].isdigit() and int(argv[1]) > 0:
        pairs, argv = int(argv[1]), argv[2:]
    if len(argv) == 1 and not argv[0].startswith("-"):
        return compare(argv[0], pairs)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
