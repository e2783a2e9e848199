"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Each workload is an endless stream of ops.  Op ``i`` draws its input from
``random.Random(f"{seed}:{name}:{i}")``, so any prefix of the stream is the
same for the same seed whatever the run length, and no input repeats within
a run.  The slice an op belongs to depends on ``i`` alone, so every prefix
has the same mix of slices.

A workload object has four methods, called by ``run.py`` in this order:

``make(i)``        build op ``i`` (untimed)
``call(op)``       the timed operation, through the public entry point
``check(op, out)`` structural checks; returns a failure reason or None
``digest(op, out)`` the byte-deterministic part of the output, for goldens

plus ``observe(op, out, props)``, which records the input properties that
the cost of an op depends on (admissible-pair counts, cell census, antenna
count, share of -inf and error inputs, numerator digits).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from troplane import arrangement, cli, mapping, normalform, triangle, verify
from troplane.matrices import TropMatrix3, mul
from troplane.scalars import TropScalar

# --- input generators -----------------------------------------------------

_DENOMS = (1, 1, 1, 2, 2, 3, 4, 6)

# One 20-op cycle of the analyze/figure corpus: G generic (rand_matrix-like),
# T tie-heavy (small integers), L large numerators, C cheap (-inf or error).
_CYCLE = "GTGLGTGGCGTGGTLGGTCG"
# The tie ops of a cycle have these admissible-pair counts, in order (6 is
# the generic count).  A fixed mix keeps p90 from moving with the seed; with
# 3 of 20 ops at 36 pairs, the slowest, p90 falls inside that slice rather
# than on the edge between two slices.
_TIE_PAIRS = (12, 36, 24, 36, 36)
_CHEAP_KINDS = ("monomial", "nonfinite", "malformed")
# figure viewports, rotated by op index: default, tight, wide
_VIEWPORTS = (None, "-3,3,-3,3", "-60,60,-60,60")
# verify --trials: small, so a run holds over 100 invocations
VERIFY_TRIALS = 1

SVG_NS = "{http://www.w3.org/2000/svg}"
SVG_GROUPS = ("span-region", "cell-skeleton", "row-lines", "soma-outline",
              "antennas", "vertex-labels")

# The 26 suites at the time the benchmark was defined; digests and the
# per-layer metrics cover these names only, so an added suite changes neither.
SUITE_NAMES = (
    "semiring-laws", "norm-axioms", "cramer-line", "power-chain",
    "goodness-equivalence", "monomial-closure", "det-monomial", "sqrt-law",
    "sqrt-negative-control", "canonical-invariance", "normalization-validity",
    "normalizations-agree", "origin-vs-normality", "idempotency-criterion",
    "arrangement-census", "bounded-vs-soma", "piecewise-behavior",
    "fixed-set", "convexity", "soma-maximality", "cardinal-points",
    "map-algebra", "projector", "hrep-oracle", "collinearity",
    "apply-vs-project",
)
# Suites whose claim is false, so that a reported counterexample is correct
# output.  origin-vs-normality: documented in the README.  convexity: it
# claims every triangle with an antenna is non-convex, but with
# d=0, dv=(0,8,0), h=(0,0,0), g=3 the soma is the segment x=0, 0<=y<=8 and
# the S antenna runs on to (0,-3), so the triangle is a convex segment; the
# suite fails whenever its few trials draw only such triangles for a
# direction (about 8% of seeds at --trials 2).
KNOWN_FALSE_SUITES = frozenset({"origin-vs-normality", "convexity"})


def _rng(seed: int, name: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{i}")


def _small(rng, lo=-12, hi=12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(_DENOMS))


def _large(rng) -> Fraction:
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(10_000, 999_999),
                    rng.choice((1, 2, 3, 5, 7)))


def _doc(rows) -> str:
    return json.dumps({"entries": [[str(e) for e in row] for row in rows]})


def matrix_input(rng: random.Random, slot: str, i: int):
    """(kind, document text, entries or None) for one analyze/figure input."""
    if slot == "G":
        rows = [[_small(rng) for _ in range(3)] for _ in range(3)]
        return "generic", _doc(rows), rows
    if slot == "T":
        want = _TIE_PAIRS[_CYCLE[:i % len(_CYCLE)].count("T")]
        while True:
            rows = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
            if admissible_pairs(rows) == want:
                return "tie", _doc(rows), rows
    if slot == "L":
        rows = [[_large(rng) for _ in range(3)] for _ in range(3)]
        return "large", _doc(rows), rows
    kind = _CHEAP_KINDS[(i // 10) % 3]
    if kind == "monomial":
        perm = list(range(3))
        rng.shuffle(perm)
        rows = [[_small(rng) if j == perm[r] else None for j in range(3)]
                for r in range(3)]
        return kind, _doc([["-inf" if e is None else e for e in row]
                           for row in rows]), None
    if kind == "nonfinite":
        rows = [[_small(rng) for _ in range(3)] for _ in range(3)]
        for k in rng.sample(range(9), 2):
            rows[k // 3][k % 3] = "-inf"
        return kind, _doc(rows), None
    text = _doc([[_small(rng) for _ in range(3)] for _ in range(3)])
    return kind, text[:rng.randint(1, len(text) - 1)], None


def _nonneg(rng, hi=9) -> Fraction:
    return Fraction(rng.randint(0, hi), rng.choice(_DENOMS))


def _positive(rng, hi=9) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.choice(_DENOMS))


def canonical_params(rng: random.Random, case: int):
    """Valid canonical parameters: case 0 no antenna, 1 h-antennas, 2 g."""
    zero = Fraction(0)
    if case == 0:
        return normalform.CanonicalParams(
            _nonneg(rng), tuple(_nonneg(rng) for _ in range(3)),
            (zero,) * 3, zero)
    if case == 1:
        d = _nonneg(rng, 4)
        dv = [_nonneg(rng) for _ in range(3)]
        h = [zero] * 3
        slots = [j for j in range(3) if rng.random() < 0.6] or [rng.randrange(3)]
        for j in slots:  # h_{j+1} > 0 forces d_j = 0
            h[(j + 1) % 3] = _positive(rng)
            dv[j] = zero
        return normalform.CanonicalParams(d, tuple(dv), tuple(h), zero)
    dv = (zero, _nonneg(rng), _nonneg(rng))
    h = (zero, _positive(rng) if rng.random() < 0.5 else zero, zero)
    return normalform.CanonicalParams(zero, dv, h, _positive(rng))


# --- shared helpers -------------------------------------------------------

@dataclass
class CliOut:
    rc: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOut:
    """troplane.cli.main with stdout/stderr captured, as a shell would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
    return CliOut(rc, out.getvalue(), err.getvalue())


def _cli_bytes(out: CliOut) -> bytes:
    return f"{out.rc}\n{out.stdout}\n--\n{out.stderr}".encode()


def _matrix(rows) -> TropMatrix3:
    return TropMatrix3(tuple(tuple(TropScalar.parse(e) for e in row)
                             for row in rows))


def admissible_pairs(rows) -> int:
    """Number of (pi, tau) pairs whose diagonal is an optimal assignment."""
    perms = list(itertools.permutations(range(3)))
    best = max(sum(rows[i][p[i]] for i in range(3)) for p in perms)
    return sum(1 for pi in perms for tau in perms
               if sum(rows[pi[k]][tau[k]] for k in range(3)) == best)


def numerator_digits(rows) -> int:
    return max(len(str(abs(e.numerator))) for row in rows for e in row)


def _error_check(out: CliOut, kind: str) -> str | None:
    """An expected exit 2/3: empty stdout and a JSON reason on stderr."""
    if out.stdout:
        return "error exit wrote to stdout"
    try:
        doc = json.loads(out.stderr)
    except json.JSONDecodeError:
        return "stderr is not a JSON reason"
    if doc.get("error") != kind:
        return f"stderr error is {doc.get('error')!r}, expected {kind!r}"
    return None


@dataclass
class MatrixOp:
    index: int
    kind: str
    rows: list | None  # finite entries, for properties; None on cheap ops
    argv: list[str]
    expect_rc: int


class _MatrixWorkload:
    """Shared input handling of the analyze and figure workloads."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / f"{self.name}-input.json"

    def _argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def make(self, i: int) -> MatrixOp:
        rng = _rng(self.seed, self.name, i)
        kind, text, rows = matrix_input(rng, _CYCLE[i % len(_CYCLE)], i)
        expect = {"malformed": 2, "nonfinite": 3}.get(kind, 0)
        if self.name == "figure" and kind == "monomial":
            expect = 3  # render_figure needs all-finite entries
        # the program reads its input from a file, as a CLI user's would
        self.path.write_text(text, encoding="utf-8")
        return MatrixOp(i, kind, rows, self._argv(i), expect)

    def call(self, op: MatrixOp) -> CliOut:
        return run_cli(op.argv)

    def digest(self, op, out: CliOut) -> bytes:
        return _cli_bytes(out)

    def _check_rc(self, op, out: CliOut) -> str | None:
        if out.rc != op.expect_rc:
            return f"{op.kind} input: exit {out.rc}, expected {op.expect_rc}"
        if op.expect_rc == 2:
            return _error_check(out, "input")
        if op.expect_rc == 3:
            return _error_check(out, "precondition")
        if out.stderr:
            return "exit 0 wrote to stderr"
        return None

    def _observe_input(self, op, props: Counter) -> None:
        props[f"kind:{op.kind}"] += 1
        if op.kind in ("monomial", "nonfinite"):
            props["share:-inf"] += 1
        if op.expect_rc:
            props["share:error"] += 1
        if op.rows is not None:
            props[f"admissible_pairs:{admissible_pairs(op.rows)}"] += 1
            digits = numerator_digits(op.rows)
            props["max_numerator_digits"] = max(
                props["max_numerator_digits"], digits)


class AnalyzeWorkload(_MatrixWorkload):
    name = "analyze"

    def _argv(self, i):
        return ["analyze", "--input", str(self.path)]

    def check(self, op, out: CliOut) -> str | None:
        bad = self._check_rc(op, out)
        if bad or op.expect_rc:
            return bad
        try:
            report = json.loads(out.stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if op.kind == "monomial":
            if (report.get("canonical") is not None
                    or report.get("classification") != mapping.BIJECTIVE):
                return "monomial input was canonicalized"
            return None
        canon = report["canonical"]
        params = normalform.CanonicalParams(
            Fraction(canon["params"]["d"]),
            tuple(Fraction(v) for v in canon["params"]["dv"]),
            tuple(Fraction(v) for v in canon["params"]["h"]),
            Fraction(canon["params"]["g"]))
        if normalform.validate_params(params):
            return "reported parameters are not valid"
        f = _matrix(canon["F"])
        if normalform.make_F(params) != f:
            return "make_F(params) differs from the reported F"
        a = _matrix([[str(e) for e in row] for row in op.rows])
        if mul(mul(_matrix(canon["P"]), a), _matrix(canon["Q"])) != f:
            return "P (.) A (.) Q differs from the reported F"
        tri = report["triangle"]
        if tri["soma_dimension"] != triangle.soma_dimension(params):
            return "soma dimension does not match the parameters"
        if len(tri["antennas"]) != sum(1 for v in (*params.h, params.g) if v):
            return "antennas do not match the positive antenna parameters"
        cells = report["cells"]
        if cells["total"] != sum(cells["by_dimension"].values()):
            return "cell census does not add up"
        return None

    def observe(self, op, out: CliOut, props: Counter) -> None:
        self._observe_input(op, props)
        if op.rows is not None and out.rc == 0:
            report = json.loads(out.stdout)
            by = report["cells"]["by_dimension"]
            props[f"cells:{report['cells']['total']}="
                  f"{by['0']}/{by['1']}/{by['2']}"] += 1
            props[f"antennas:{len(report['triangle']['antennas'])}"] += 1


class FigureWorkload(_MatrixWorkload):
    name = "figure"

    def _argv(self, i):
        argv = ["figure", "--input", str(self.path)]
        viewport = _VIEWPORTS[i % len(_VIEWPORTS)]
        if viewport:
            argv.append(f"--viewport={viewport}")
        return argv

    def check(self, op, out: CliOut) -> str | None:
        bad = self._check_rc(op, out)
        if bad or op.expect_rc:
            return bad
        try:
            root = ET.fromstring(out.stdout)
        except ET.ParseError as exc:
            return f"SVG is not well-formed: {exc}"
        if root.tag != SVG_NS + "svg":
            return "root element is not <svg>"
        groups = tuple(g.get("id") for g in root if g.tag == SVG_NS + "g")
        if groups != SVG_GROUPS:
            return f"SVG groups are {groups}"
        labels = root[SVG_GROUPS.index("vertex-labels")]
        if len(labels.findall(SVG_NS + "circle")) != 6:
            return "vertex-labels does not hold six points"
        return None

    def observe(self, op, out: CliOut, props: Counter) -> None:
        self._observe_input(op, props)
        if op.rows is not None and out.rc == 0:
            arr = arrangement.enumerate_cells(
                _matrix([[str(e) for e in row] for row in op.rows]))
            n0, n1, n2 = arr.counts()
            props[f"cells:{len(arr.cells)}={n0}/{n1}/{n2}"] += 1
            root = ET.fromstring(out.stdout)
            antennas = root[SVG_GROUPS.index("antennas")].findall(
                SVG_NS + "path")
            props[f"antenna_paths:{len(antennas)}"] += 1


@dataclass
class ParamsOp:
    index: int
    case: int
    params: normalform.CanonicalParams


class PiecewiseWorkload:
    name = "piecewise"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make(self, i: int) -> ParamsOp:
        case = i % 3
        return ParamsOp(i, case, canonical_params(_rng(self.seed, self.name, i),
                                                  case))

    def call(self, op: ParamsOp):
        return mapping.piecewise_report(normalform.make_F(op.params))

    @staticmethod
    def _antennas(p) -> int:
        return sum(1 for v in (*p.h, p.g) if v > 0)

    def check(self, op, report) -> str | None:
        f = normalform.make_F(op.params)
        if report.matrix != f:
            return "report is for another matrix"
        two_cells = {c.signature for c in arrangement.enumerate_cells(f).cells
                     if c.dim == 2}
        labelled = [e.cell.signature for e in report.entries]
        if len(labelled) != len(set(labelled)) or set(labelled) != two_cells:
            return "2-cells and labelled cells differ"
        behaviors = Counter(e.behavior for e in report.entries)
        if set(behaviors) - {mapping.IDENTITY_ON_SOMA, mapping.COLLAPSE,
                             mapping.PROJECTION}:
            return f"unknown behavior in {sorted(behaviors)}"
        soma2 = triangle.soma_dimension(op.params) == 2
        if behaviors[mapping.IDENTITY_ON_SOMA] != int(soma2):
            return "identity cell count does not match the soma dimension"
        if behaviors[mapping.COLLAPSE] != self._antennas(op.params):
            return "collapse cells do not match the positive antenna parameters"
        return None

    def digest(self, op, report) -> bytes:
        # Cell witnesses and sample points are enumeration details, so only
        # each cell's signature, behavior and validated directions count.
        lines = sorted(
            "|".join([
                "/".join(",".join(map(str, sorted(s)))
                         for s in e.cell.signature.rows()),
                str(e.cell.dim), e.behavior, repr(e.directions)])
            for e in report.entries)
        return "\n".join(lines).encode()

    def observe(self, op, report, props: Counter) -> None:
        props[f"case:{op.case}"] += 1
        props[f"antennas:{self._antennas(op.params)}"] += 1
        props[f"labelled_2cells:{len(report.entries)}"] += 1


@dataclass
class VerifyOp:
    index: int
    argv: list[str]


_SUITE_LINE = re.compile(r"^([a-z0-9-]+): trials=(\d+) (pass|FAIL \((\d+)\))$")


class VerifyWorkload:
    name = "verify"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make(self, i: int) -> VerifyOp:
        s = _rng(self.seed, self.name, i).randrange(2**31)
        return VerifyOp(i, ["verify", "--seed", str(s),
                            "--trials", str(VERIFY_TRIALS)])

    def call(self, op: VerifyOp) -> CliOut:
        return run_cli(op.argv)

    @staticmethod
    def _parse(out: CliOut):
        lines = out.stdout.splitlines()
        n = len(verify.SUITES)
        suites = [_SUITE_LINE.match(line) for line in lines[:n]]
        tail = "\n".join(lines[n:])
        return suites, tail

    def check(self, op, out: CliOut) -> str | None:
        suites, tail = self._parse(out)
        if any(m is None for m in suites):
            return "a suite line is malformed"
        names = [m.group(1) for m in suites]
        if names != [name for name, _ in verify.SUITES]:
            return "suite lines do not follow verify.SUITES"
        missing = set(SUITE_NAMES) - set(names)
        if missing:
            return f"suites missing from the output: {sorted(missing)}"
        failing = {m.group(1) for m in suites if m.group(3) != "pass"}
        if not failing <= KNOWN_FALSE_SUITES:
            return f"unexpected failing suites: {sorted(failing)}"
        if out.rc != (1 if failing else 0):
            return f"exit {out.rc} with failing suites {sorted(failing)}"
        if failing:
            try:
                listed = {c["suite"] for c in json.loads(tail)}
            except (json.JSONDecodeError, KeyError, TypeError):
                return "counterexample block is not the expected JSON"
            if listed != failing:
                return "counterexamples do not match the failing suites"
        elif tail:
            return "output after the suite lines on a passing run"
        return None

    def digest(self, op, out: CliOut) -> bytes:
        suites, tail = self._parse(out)
        known = [m.group(0) for m in suites
                 if m is not None and m.group(1) in SUITE_NAMES]
        if tail:
            try:
                tail = json.dumps([c for c in json.loads(tail)
                                   if c.get("suite") in SUITE_NAMES])
            except (json.JSONDecodeError, AttributeError):
                pass
        return "\n".join([str(out.rc)] + known + [tail]).encode()

    def observe(self, op, out: CliOut, props: Counter) -> None:
        props[f"exit:{out.rc}"] += 1
        for m in self._parse(out)[0]:
            if m.group(3) != "pass":
                props[f"failing:{m.group(1)}"] += 1


WORKLOADS = {
    "analyze": AnalyzeWorkload,
    "figure": FigureWorkload,
    "piecewise": PiecewiseWorkload,
    "verify": VerifyWorkload,
}
