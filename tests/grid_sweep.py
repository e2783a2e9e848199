"""Exhaustive checks on the small grids {-1, 0, 1}^9 and {-inf, 0, 1}^9.

Run from a source checkout (takes several minutes on one core):

    python tests/grid_sweep.py [--shard k/n]

It walks each grid once, in ``itertools.product`` order, and runs the grid's
named checks on each input (its nine entries, row by row):

- ``arrangement``: ``arrangement_oracle.first_difference`` between
  ``enumerate_cells`` and the brute-force oracle, on every valid matrix (a
  finite entry in each row and each column);
- ``canonical``: ``fraction_oracle.first_difference``, the canonical form
  against the Fraction oracle with its algebraic checks (finite grid only);
- ``analyze``: the exit contract of ``troplane analyze`` on stdin (-inf grid
  only), see ``analyze`` below.

It prints one line per grid and check with what it counted, and exits 0 when
every check holds; on the first failure it prints the input, the check and
the failing field, and exits 1.  ``--shard k/n`` (0 <= k < n) runs only the
inputs whose index in the grid is k mod n, so n runs with k = 0..n-1 cover
each grid once.  pytest does not collect this file; tests/test_grid_sweep.py
checks the sharding, and the oracle tests run the same checks on seeded
samples.
"""

import argparse
import io
import itertools
import json
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import arrangement_oracle  # noqa: E402
import fraction_oracle  # noqa: E402
from troplane import cli  # noqa: E402
from troplane.arrangement import enumerate_cells  # noqa: E402
from troplane.matrices import TropMatrix3  # noqa: E402
from troplane.scalars import format_value  # noqa: E402


def _valid(rows):
    """A finite entry in each row and each column."""
    return all(any(x is not None for x in line)
               for line in (*rows, *zip(*rows)))


def arrangement(rows, tally):
    if not _valid(rows):
        return None
    a = TropMatrix3.of(rows)
    got = enumerate_cells(a)
    tally["matrices"] += 1
    tally["cells"] += len(got.cells)
    return arrangement_oracle.first_difference(
        a, got, arrangement_oracle.enumerate_cells(a))


def canonical(rows, tally):
    tally["matrices"] += 1
    return fraction_oracle.first_difference(TropMatrix3.of(rows))


def _json_object(text):
    """The one JSON object that is all of `text`, or None."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


_ERRORS = {2: {"error": "input"},
           3: {"error": "precondition", "type": "NonFiniteEntryError"}}


def analyze(rows, tally):
    """``troplane analyze --input -`` with stdin, stdout and stderr captured.

    An invalid matrix exits 2 with {"error": "input"}; a monomial pattern
    exits 0 as "bijective-monomial"; any other matrix with a -inf entry exits
    3 with NonFiniteEntryError; an all-finite matrix exits 0.  An exit 0
    prints one JSON object on stdout and nothing on stderr, an error the
    reverse.  An exception that escapes ``cli.main`` fails the check too.
    """
    doc = json.dumps({"entries": [[format_value(x) for x in row]
                                  for row in rows]})
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["analyze", "--input", "-"])
    finally:
        sys.stdin = stdin
    tally[f"exit {code}"] += 1
    finite = sum(x is not None for row in rows for x in row)
    monomial = _valid(rows) and finite == 3
    want = 2 if not _valid(rows) else 0 if monomial or finite == 9 else 3
    if code != want:
        return f"exit code {code}, expected {want}"
    stream = "stdout" if want == 0 else "stderr"
    text = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    report = _json_object(text.pop(stream))
    if report is None or any(text.values()):
        return f"not one JSON object on {stream} alone"
    if want == 0:
        if (report.get("classification") == "bijective-monomial") != monomial:
            return f"classification {report.get('classification')}"
    elif any(report.get(k) != v for k, v in _ERRORS[want].items()):
        return f"error object {report}"
    return None


GRIDS = (
    ("{-1, 0, 1}^9", (-1, 0, 1), (arrangement, canonical)),
    ("{-inf, 0, 1}^9", (None, 0, 1), (arrangement, analyze)),
)


def shard(total, k, n):
    """The indices of shard k of n in range(total)."""
    return range(k, total, n)


def parse_shard(text):
    """'k/n' with 0 <= k < n, as (k, n)."""
    try:
        k, n = map(int, text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not k/n: {text!r}") from None
    if not 0 <= k < n:
        raise argparse.ArgumentTypeError(f"need 0 <= k < n: {text!r}")
    return k, n


def _show(rows):
    return "[" + ", ".join("[" + ", ".join(map(format_value, row)) + "]"
                           for row in rows) + "]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shard", type=parse_shard, default=(0, 1),
                        metavar="k/n", help="run inputs with index k mod n")
    k, n = parser.parse_args(argv).shard
    for name, values, checks in GRIDS:
        inputs = list(itertools.product(values, repeat=9))
        tallies = {check: Counter() for check in checks}
        seconds = Counter()
        indices = shard(len(inputs), k, n)
        for i in indices:
            e = inputs[i]
            rows = [e[0:3], e[3:6], e[6:9]]
            for check in checks:
                start = time.perf_counter()
                try:
                    field = check(rows, tallies[check])
                except Exception as exc:
                    traceback.print_exc()
                    field = f"raised {type(exc).__name__}: {exc}"
                seconds[check] += time.perf_counter() - start
                if field is not None:
                    print(f"{name} input {i} {_show(rows)}: "
                          f"{check.__name__}: {field}")
                    return 1
        print(f"{name}, shard {k}/{n}: {len(indices)} inputs")
        for check in checks:
            counts = ", ".join(f"{v} {key}" for key, v
                               in sorted(tallies[check].items()))
            print(f"  {check.__name__}: {counts or 'nothing checked'}, "
                  f"{seconds[check]:.1f} s, all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
