"""Each request computes each derived object once.

Calls are counted by wrapping a function under every name a troplane module
imported it as, so a call through any of those names is seen.
"""

import sys
from fractions import Fraction

from troplane import arrangement, normalform
from troplane.cli import EXIT_OK, main
from troplane.mapping import COLLAPSE, piecewise_report
from troplane.normalform import make_F, params

TWO_ANTENNA_DOC = ('{"entries":[["0","-5","0"],["-7","0","0"],'
                   '["-6","-1","0"]]}')


def _count_calls(monkeypatch, func) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("troplane")
                and getattr(module, func.__name__, None) is func):
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def test_analyze_canonicalizes_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.json"
    path.write_text(TWO_ANTENNA_DOC)
    calls = _count_calls(monkeypatch, normalform.canonical_form)
    assert main(["analyze", "--input", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def test_figure_canonicalizes_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.json"
    path.write_text(TWO_ANTENNA_DOC)
    calls = _count_calls(monkeypatch, normalform.canonical_form)
    assert main(["figure", "--input", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def test_piecewise_report_builds_one_arrangement(monkeypatch):
    f = make_F(params(0, (0, 6, 1), (0, Fraction(1), 0), 4))  # h2 and g
    cells = _count_calls(monkeypatch, arrangement.enumerate_cells)
    reads = _count_calls(monkeypatch, normalform.read_params)
    rep = piecewise_report(f)
    assert [e.behavior for e in rep.entries].count(COLLAPSE) == 2
    assert len(cells) == 1
    assert len(reads) == 1
