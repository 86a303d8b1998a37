"""The four workloads: seeded operation pools, their references and checks.

A workload is a pool of operations that every round runs in the same
order. Seeded operations are drawn from `--seed`; the fault slices are
fixed inputs on which the program fails every time (README.md, "Kept
faults"), so the share of failed operations is the same in every run.

Seeded cuts keep q = -expm1(ln(y)/(a-1)) >= SEEDED_Q_MIN. Below it the
crossings of the current program miss the 1e-12 half-width bound on some
inputs and meet it on others (F-cross), which would make the failure count
depend on the seed; the fixed F-cross slice covers that zone instead.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
from gammabw import cli
from gammabw.bandwidth import ShapeScale, fwym, inverse_pdf, octave_bandwidth
from gammabw.gamma2 import quantile_a2
from gammabw.lambertw import Branch

ns = time.perf_counter_ns

Y_LEVELS = (0.5, 1.0 / math.sqrt(2.0), 1.0 / math.e, 0.25, 0.1)
SEEDED_Q_MIN = 3e-4
FORMATS = ("csv", "json", "plain")
# One size per CLI workload, so that unit times cluster by output format
# only and their median and p90 fall inside a cluster, not between two.
COMPARE_POINTS = 1000
CURVE_POINTS = 15000

# Series-only cuts (q < 1e-4) whose crossings miss the bound: F-cross.
F_CROSS = (
    (3.0, 1.0, 1.0 - 1e-5),
    (3.0, 2.0, 1.0 - 1e-10),
    (7.0, 1.5, 1.0 - 1e-12),
    (10.0, 0.5, 1.0 - 1e-8),
    (50.0, 1.0, 0.9995),
    (1000.0, 1.0, 1.0 - 1e-14),
    (3e4, 2.0, 0.5),
    (1e5, 1.0, 0.5),
    (1e6, 1.0, 0.1),
    (1e7, 0.01, 0.25),
    (1e9, 1.0, 0.5),
    (1e12, 3.0, 0.5),
)
# Octaves where y**(1/(a-1))/e underflows to -0.0: F-octave.
F_OCTAVE = (
    (1.0001, 1.0, 0.5),
    (1.0005, 0.5, 0.5),
    (1.00001, 2.0, 0.1),
    (1.0 + 1e-9, 1e3, 1.0 / math.e),
)
# --verify at a level so close to the peak that the oracle's absolute
# tolerance exceeds the width's 1e-8 check: F-verify.
F_VERIFY = ((3.0, 2.0, 0.9999999999),)


@dataclass
class Op:
    """One operation of a pool.

    invoke() runs it once and returns (t0, t1, output), where [t0, t1] is
    the timed unit in perf_counter nanoseconds.
    """

    kind: str  # span name of the unit: the library function, or "main"
    label: str  # lambertw regime of a cut, or the CLI output format
    params: tuple
    items: int
    invoke: Callable[[], tuple[int, int, object]]
    fault: str | None = None
    ref: int = -1  # index of this op's reference request
    group: int = -1  # CLI ops of one group differ only in output format


def regime(a: float, y: float) -> str:
    """The lambertw path a cut takes, by the thresholds in lambertw.py."""
    if a == 1.0:
        return "exponential"
    if y == 1.0:
        return "degenerate"
    r = math.log(y) / (a - 1.0)
    if r - 1.0 <= -690.0:
        return "log-form"
    q = -math.expm1(r)
    if q < 1e-4:
        return "series"
    if q < 1e-3:
        return "series-halley"
    return "halley"


def library_call(fn, *args) -> Callable[[], tuple[int, int, object]]:
    def invoke():
        t0 = ns()
        try:
            res = fn(*args)
        except Exception as exc:  # a failing call is a result to check, not a crash
            res = f"{type(exc).__name__}: {exc}"
        return t0, ns(), res

    return invoke


def cli_call(argv: list[str]) -> Callable[[], tuple[int, int, object]]:
    """One main(argv), writing to text streams over in-memory byte buffers;
    the flush, which encodes the output, is inside the timed unit."""

    def invoke():
        out_buf, err_buf = io.BytesIO(), io.BytesIO()
        out = io.TextIOWrapper(out_buf, encoding="utf-8", newline="\n")
        err = io.TextIOWrapper(err_buf, encoding="utf-8", newline="\n")
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            t0 = ns()
            try:
                code = cli.main(argv)
            except Exception as exc:  # recorded as the op's output and checked
                code = f"{type(exc).__name__}: {exc}"
            out.flush()
            t1 = ns()
        finally:
            sys.stdout, sys.stderr = saved
        err.flush()
        return t0, t1, (code, out_buf.getvalue(), err_buf.getvalue())

    return invoke


def fingerprint(output: object) -> object:
    """What later rounds must reproduce: library results compare by value,
    CLI runs by exit code, a digest of stdout, and stderr."""
    if isinstance(output, tuple):
        code, out, err = output
        return code, hashlib.blake2b(out, digest_size=16).digest(), err
    return output


class Workload:
    name: str
    import_name: str  # what a user of this workload imports

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.requests: list[list] = []

    def loguni(self, lo: float, hi: float) -> float:
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def check(self, op: Op, output: object, ref: dict) -> checks.Verdict:
        raise NotImplementedError


class LibCuts(Workload):
    """Direct library calls over cuts that reach every lambertw regime."""

    name = "lib-cuts"
    import_name = "gammabw"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        lu, uni, pick = self.loguni, self.rng.uniform, self.rng.choice

        def ordinary():
            return lu(1.01, 1e3), lu(1e-3, 1e3), pick(Y_LEVELS)

        def near_peak():  # series plus Halley: SEEDED_Q_MIN <= q < 1e-3
            a, q = lu(1.5, 1e4), lu(SEEDED_Q_MIN, 1e-3)
            return a, lu(1e-3, 1e3), math.exp((a - 1.0) * math.log1p(-q))

        def log_form(r_lo, r_hi):  # r - 1 <= -690; a is then just above 1
            y = pick(Y_LEVELS)
            return 1.0 + math.log(y) / uni(r_lo, r_hi), lu(1e-3, 1e3), y

        def large_a():  # tiny y keeps q >= 1.3e-3 up to a = 3e5
            return lu(1e3, 3e5), lu(1e-3, 1e3), math.exp(uni(-700.0, -400.0))

        cuts = (
            [ordinary() for _ in range(200)]
            + [near_peak() for _ in range(40)]
            + [log_form(-3000.0, -689.5) for _ in range(30)]
            + [large_a() for _ in range(30)]
            + [(1.0, lu(1e-3, 1e3), pick(Y_LEVELS)) for _ in range(15)]
            + [(lu(1.01, 1e3), lu(1e-3, 1e3), 1.0) for _ in range(10)]
        )
        # Octaves in the log-form zone stay above r - 1 = -701: below about
        # -702 the program's ratio w_hi/w_lo overflows and the count is inf.
        octaves = (
            [ordinary() for _ in range(30)]
            + [log_form(-700.0, -689.5) for _ in range(10)]
            + [large_a() for _ in range(10)]
        )
        ops = [self._cut(fwym, *c) for c in cuts]
        ops += [self._cut(fwym, *c, fault="F-cross") for c in F_CROSS]
        ops += [self._cut(octave_bandwidth, *c) for c in octaves]
        ops += [self._cut(octave_bandwidth, *c, fault="F-octave") for c in F_OCTAVE]
        for branch in (Branch.PRINCIPAL, Branch.SECONDARY):
            ops += [self._inverse(*ordinary(), branch) for _ in range(30)]
        ops += [self._quantile(uni(0.01, 0.99), lu(1e-3, 1e3)) for _ in range(40)]
        self.rng.shuffle(ops)
        for op, request in ops:
            op.ref = len(self.requests)
            self.requests.append(request)
            self.ops.append(op)

    @staticmethod
    def _cut(fn, a, b, y, fault=None):
        call = library_call(fn, ShapeScale(a, b), y)
        return Op(fn.__name__, regime(a, y), (a, b, y), 1, call, fault), ["cut", a, b, y]

    @staticmethod
    def _inverse(a, b, y, branch):
        m = (a - 1.0) * b
        p = y * math.exp((a - 1.0) * math.log(m) - m / b - math.lgamma(a) - a * math.log(b))
        call = library_call(inverse_pdf, p, ShapeScale(a, b), branch)
        principal = branch is Branch.PRINCIPAL
        op = Op("inverse_pdf", branch.name.lower(), (a, b, p), 1, call)
        return op, ["inverse", a, b, p, principal]

    @staticmethod
    def _quantile(p, b):
        op = Op("quantile_a2", "quantile", (p, b), 1, library_call(quantile_a2, p, b))
        return op, ["quantile", p, b]

    def check(self, op: Op, output: object, ref: dict) -> checks.Verdict:
        v = checks.Verdict()
        if isinstance(output, str):
            v.fail(output)
        elif op.kind == "fwym":
            got = {f: getattr(output, f) for f in checks.FWHM_FIELDS}
            checks.check_cut(v, got, ref, *op.params)
        elif op.kind == "octave_bandwidth":
            checks.check_octave(v, output, ref)
        elif op.kind == "inverse_pdf":
            checks.check_inverse(v, output, ref, *op.params)
        else:
            checks.check_quantile(v, output, ref, op.params[1])
        return v


class CliWorkload(Workload):
    import_name = "gammabw.cli"

    def add_group(self, argv: list[str], params: tuple, items: int, request: list, fault=None) -> None:
        """One parameter set in each output format, sharing one reference."""
        group = len(self.ops) // len(FORMATS)
        ref = len(self.requests)
        self.requests.append(request)
        for fmt in FORMATS:
            call = cli_call(argv + ["--format", fmt])
            self.ops.append(Op("main", fmt, params, items, call, fault, ref, group))

    def check(self, op: Op, output: object, ref: dict) -> checks.Verdict:
        v = checks.Verdict()
        code, out, err = output
        if code != 0:
            v.fail(f"exit {code}: {err.decode('utf-8', 'replace').strip()}")
        elif err:
            v.fail(f"unexpected stderr {err[:200]!r}")
        try:
            parsed = self.parse(op, out)
        except (ValueError, KeyError, IndexError) as exc:
            v.fail(f"unparsable {op.label} output: {exc}")
            return v
        v.numbers = parsed
        self.check_parsed(v, op, parsed, ref)
        return v


class CliCompare(CliWorkload):
    """compare over seeded shape ranges from just above 1 to about 1e6."""

    name = "cli-compare"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for _ in range(4):
            a_min, a_max = self.loguni(1.0002, 1.002), self.loguni(5e5, 1e6)
            argv = ["compare", "--a-min", repr(a_min), "--a-max", repr(a_max), "--points", str(COMPARE_POINTS)]
            params = (a_min, a_max, COMPARE_POINTS)
            self.add_group(argv, params, COMPARE_POINTS, ["compare", *params])

    def parse(self, op, out):
        return checks.parse_table(out, op.label, checks.COMPARE_COLUMNS, op.params[2], ())

    def check_parsed(self, v, op, parsed, ref):
        checks.check_compare(v, parsed, ref, checks.compare_shapes(*op.params))


class CliCurve(CliWorkload):
    """curve at seeded (a, b) on grids of tens of thousands of points."""

    name = "cli-curve"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for _ in range(4):
            a, b, n = self.loguni(1.5, 100.0), self.loguni(0.1, 10.0), CURVE_POINTS
            argv = ["curve", "--a", repr(a), "--b", repr(b), "--n", str(n)]
            self.add_group(argv, (a, b, n), n, ["curve", a, b, n])

    def parse(self, op, out):
        return checks.parse_table(
            out, op.label, checks.CURVE_COLUMNS, op.params[2], checks.CURVE_ANNOTATIONS
        )

    def check_parsed(self, v, op, parsed, ref):
        a, b, n = op.params
        checks.check_curve(v, parsed, ref, a, b, checks.curve_grid(a, b, n))


class CliVerify(CliWorkload):
    """fwhm --verify at seeded (a, b, y): the oracle and the parser's cost."""

    name = "cli-verify"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        params = [
            (self.loguni(1.01, 1e3), self.loguni(1e-2, 1e2), self.rng.choice(Y_LEVELS))
            for _ in range(40)
        ]
        for (a, b, y), fault in [(p, None) for p in params] + [(p, "F-verify") for p in F_VERIFY]:
            argv = ["fwhm", "--a", repr(a), "--b", repr(b), "--y", repr(y), "--verify"]
            self.add_group(argv, (a, b, y), 1, ["cut", a, b, y], fault)

    def parse(self, op, out):
        return checks.parse_record(out, op.label, checks.VERIFY_FIELDS)

    def check_parsed(self, v, op, parsed, ref):
        checks.check_verify(v, parsed, ref, *op.params)


WORKLOADS = {w.name: w for w in (LibCuts, CliCompare, CliCurve, CliVerify)}
