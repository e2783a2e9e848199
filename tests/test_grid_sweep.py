"""The exhaustive grid driver's sharding and report, without walking a grid.

``tests/grid_sweep.py`` itself is not collected; these tests run its shard
arithmetic and one input per grid.
"""

import argparse

import pytest

import grid_sweep
from troplane import cli

GRID_SIZE = 3 ** 9


@pytest.mark.parametrize("n", range(1, 5))
def test_shards_are_disjoint_and_cover_the_grid(n):
    parts = [set(grid_sweep.shard(GRID_SIZE, k, n)) for k in range(n)]
    assert sum(map(len, parts)) == GRID_SIZE
    assert set().union(*parts) == set(range(GRID_SIZE))


def test_shard_option_is_k_of_n():
    assert grid_sweep.parse_shard("2/3") == (2, 3)
    for text in ("3/3", "-1/3", "0/0", "1", "a/b", "1/2/3"):
        with pytest.raises(argparse.ArgumentTypeError):
            grid_sweep.parse_shard(text)


def test_first_input_of_each_grid_holds(capsys):
    assert grid_sweep.main(["--shard", f"0/{GRID_SIZE}"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{{-1, 0, 1}}^9, shard 0/{GRID_SIZE}: 1 inputs"
    assert out[1].startswith("  arrangement: 7 cells, 1 matrices, ")
    assert out[2].startswith("  canonical: 1 matrices, ")
    assert out[4].startswith("  arrangement: nothing checked, ")  # all -inf
    assert out[5].startswith("  analyze: 1 exit 2, ")


def test_failure_names_input_and_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "EXIT_INPUT_ERROR", cli.EXIT_PRECONDITION)
    assert grid_sweep.main(["--shard", f"0/{GRID_SIZE}"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "{-inf, 0, 1}^9 input 0 [[-inf, -inf, -inf], [-inf, -inf, -inf], "
        "[-inf, -inf, -inf]]: analyze: exit code 3, expected 2")
