"""Command-line front end: JSON analysis reports, SVG figures, property runs.

Exit codes: 0 success, 1 property failure, 2 input error, 3 precondition
violation (printed as a machine-readable JSON reason).  Usage errors, such as
an unknown flag or a non-integer --trials, are input errors too, and so is a
--trials outside 1..MAX_TRIALS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import mapping, verify
from .arrangement import enumerate_cells
from .errors import InvalidMatrixError, ParseError, TroplaneError
from .matrices import TropMatrix3
from .projective import chart
from .scalars import MAX_REASON_CHARS, as_fraction, format_value, parse_value
from .svgfig import DEFAULT_VIEWPORT, Viewport, render_figure
from .triangle import analyze

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3

MAX_TRIALS = 100_000  # verify's run time grows linearly in --trials


def parse_matrix(text: str) -> TropMatrix3:
    """Parse a JSON matrix document: {"entries": [[...], [...], [...]]}."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the int-to-str digit limit, or
        # nesting deeper than the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError('matrix document must be {"entries": [[...]x3]}')
    entries = doc["entries"]
    if (not isinstance(entries, list) or len(entries) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in entries)):
        raise ParseError("entries must be a 3x3 array")
    rows = []
    for i, row in enumerate(entries):
        parsed = []
        for j, item in enumerate(row):
            if not isinstance(item, str):
                raise ParseError(f"entry ({i + 1},{j + 1}) must be a string")
            try:
                parsed.append(parse_value(item))
            except ParseError as exc:
                raise ParseError(f"entry ({i + 1},{j + 1}): {exc}") from exc
        rows.append(parsed)
    return TropMatrix3.of(rows)


def _matrix_json(m: TropMatrix3) -> list[list[str]]:
    return [[format_value(x) for x in row] for row in m.values]


def _params_json(p) -> dict:
    return {
        "d": str(p.d),
        "dv": [str(v) for v in p.dv],
        "h": [str(v) for v in p.h],
        "g": str(p.g),
    }


def _point_json(p) -> dict:
    c = chart(p)
    return {"x": str(c.x), "y": str(c.y)}


def _analyze_report(a: TropMatrix3) -> dict:
    classification = mapping.classify(a)
    report: dict = {"classification": classification}
    if classification == mapping.BIJECTIVE:
        report["canonical"] = None
        report["skipped_reason"] = "monomial-matrix-is-a-change-of-coordinates"
        return report
    a.require_finite("analyze")
    tri = analyze(a)
    result = tri.canonical
    arr = enumerate_cells(a)
    n0, n1, n2 = arr.counts()
    report["canonical"] = {
        "params": _params_json(result.params),
        "P": _matrix_json(result.P.to_matrix()),
        "Q": _matrix_json(result.Q.to_matrix()),
        "F": _matrix_json(result.F),
    }
    report["triangle"] = {
        "good": tri.good,
        "soma_dimension": tri.soma_dim,
        "pinwheel": tri.pinwheel,
        "convex": tri.convex,
        "soma_vertices": [{"x": str(v.x), "y": str(v.y)}
                          for v in tri.soma_vertices_chart],
        "antennas": [
            {
                "base": _point_json(ant.base),
                "direction": ant.direction,
                "length": str(ant.length),
            }
            for ant in tri.antennas
        ],
    }
    report["cells"] = {"total": len(arr.cells),
                       "by_dimension": {"0": n0, "1": n1, "2": n2}}
    return report


def _read_input(args) -> str:
    try:
        if args.input == "-" or args.input is None:
            return sys.stdin.read()
        with open(args.input, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc


def _write_output(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as f:
                f.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_viewport(text: str) -> Viewport:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError('viewport must be "xmin,xmax,ymin,ymax"')
    x_min, x_max, y_min, y_max = (as_fraction(p) for p in parts)
    if x_min >= x_max or y_min >= y_max:
        raise ParseError("viewport is degenerate")
    return Viewport(x_min, x_max, y_min, y_max)


def cmd_analyze(args) -> int:
    a = parse_matrix(_read_input(args))
    report = _analyze_report(a)
    _write_output(args, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_figure(args) -> int:
    a = parse_matrix(_read_input(args))
    vp = _parse_viewport(args.viewport) if args.viewport else DEFAULT_VIEWPORT
    _write_output(args, render_figure(a, vp))
    return EXIT_OK


def _verify_seed(args) -> int:
    """--seed, else TROPLANE_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("TROPLANE_SEED") or 0)
    except ValueError as exc:
        raise ParseError(f"TROPLANE_SEED must be an integer: {exc}") from exc


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ParseError("trials must be >= 1")
    if args.trials > MAX_TRIALS:
        raise ParseError(f"trials must be <= {MAX_TRIALS}")
    results = verify.run_all(_verify_seed(args), args.trials)
    failed = []
    for name, trials, failures in results:
        status = "pass" if not failures else f"FAIL ({len(failures)})"
        print(f"{name}: trials={trials} {status}")
        if failures:
            failed.append((name, failures[0]))
    if failed:
        print(json.dumps(
            [{"suite": name, "counterexample": first}
             for name, first in failed], indent=2))
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ParseError, so they take the JSON error path."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="troplane",
        description="Exact tropical (max-plus) linear maps on the plane.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser(
        "analyze", help="JSON report: canonical form, triangle, cells, map")
    figure_p = sub.add_parser(
        "figure", help="SVG figure of the plane geometry in the Z=0 chart")
    verify_p = sub.add_parser(
        "verify", help="run the seeded property-verification suites")

    for p in (analyze_p, figure_p):
        p.add_argument("--input", help="matrix JSON path ('-' for stdin)")
        p.add_argument("--out", help="output path (default stdout)")
    figure_p.add_argument("--viewport", help='bounds "xmin,xmax,ymin,ymax"')
    verify_p.add_argument("--seed", type=int)
    verify_p.add_argument("--trials", type=int, default=200)

    analyze_p.set_defaults(func=cmd_analyze)
    figure_p.set_defaults(func=cmd_figure)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def _print_error(doc: dict, exc: Exception) -> None:
    """One JSON object on stderr; a reason longer than MAX_REASON_CHARS,
    which may echo an argument, a literal or a path, is cut and marked."""
    reason = str(exc)
    if len(reason) > MAX_REASON_CHARS:
        reason = reason[:MAX_REASON_CHARS] + "... [truncated]"
    print(json.dumps({**doc, "reason": reason}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, InvalidMatrixError) as exc:
        _print_error({"error": "input"}, exc)
        return EXIT_INPUT_ERROR
    except TroplaneError as exc:
        _print_error({"error": "precondition", "type": type(exc).__name__}, exc)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
