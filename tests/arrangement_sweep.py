"""Compare enumerate_cells with the brute-force oracle on all of {-1, 0, 1}^9.

Run from a source checkout (takes a few minutes):

    python tests/arrangement_sweep.py

It prints one line and exits 0 when all 19,683 matrices agree under
``arrangement_oracle.first_difference``; otherwise it prints the first
differing matrix with the first field that differs, and exits 1.
pytest does not collect this file; tests/test_arrangement_oracle.py runs the
same comparison on a seeded sample.
"""

import itertools
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import arrangement_oracle as oracle  # noqa: E402
from troplane.arrangement import enumerate_cells  # noqa: E402
from troplane.matrices import TropMatrix3  # noqa: E402


def main() -> int:
    count = cells = 0
    for e in itertools.product((-1, 0, 1), repeat=9):
        a = TropMatrix3.of([e[0:3], e[3:6], e[6:9]])
        got = enumerate_cells(a)
        field = oracle.first_difference(a, got, oracle.enumerate_cells(a))
        if field is not None:
            print(f"mismatch at {[e[0:3], e[3:6], e[6:9]]}: {field}")
            return 1
        count += 1
        cells += len(got.cells)
    print(f"{count} matrices, {cells} cells: same as the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
