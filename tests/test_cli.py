import hashlib
import json
from fractions import Fraction

import pytest

from troplane import scalars, verify
from troplane.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PRECONDITION,
    MAX_TRIALS,
    main,
    parse_matrix,
)
from troplane.errors import InvalidMatrixError, ParseError
from troplane.matrices import TropMatrix3
from troplane.scalars import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_REASON_CHARS,
    as_fraction,
)

TWO_ANTENNA_DOC = ('{"entries":[["0","-5","0"],["-7","0","0"],'
                   '["-6","-1","0"]]}')
MONOMIAL_DOC = ('{"entries":[["-inf","0","-inf"],["2","-inf","-inf"],'
                '["-inf","-inf","1"]]}')


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_matrix_round_trip():
    m = parse_matrix(TWO_ANTENNA_DOC)
    assert m == TropMatrix3.of([[0, -5, 0], [-7, 0, 0], [-6, -1, 0]])


def test_parse_matrix_rejects_bad_scalar():
    with pytest.raises(ParseError):
        parse_matrix('{"entries":[["1/0","0","0"],["0","0","0"],["0","0","0"]]}')


def test_parse_matrix_rejects_all_bottom_row():
    with pytest.raises(InvalidMatrixError):
        parse_matrix('{"entries":[["-inf","-inf","-inf"],["0","0","0"],'
                     '["0","0","0"]]}')


def test_analyze_two_antenna(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    assert main(["analyze", "--input", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["canonical"]["params"] == {
        "d": "0", "dv": ["0", "6", "1"], "h": ["0", "1", "0"], "g": "4"}
    assert report["triangle"]["pinwheel"] is False
    ants = sorted((a["direction"], a["length"]) for a in
                  report["triangle"]["antennas"])
    assert ants == [("S", "1"), ("W", "4")]
    assert report["cells"]["total"] == sum(
        report["cells"]["by_dimension"].values())


def test_analyze_monomial_skips_canonicalization(tmp_path, capsys):
    path = _write(tmp_path, "m.json", MONOMIAL_DOC)
    assert main(["analyze", "--input", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "bijective-monomial"
    assert report["canonical"] is None
    assert "skipped_reason" in report


def test_analyze_json_has_no_floats(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    main(["analyze", "--input", path])
    doc = json.loads(capsys.readouterr().out,
                     parse_float=lambda s: pytest.fail(f"float in JSON: {s}"))
    assert doc


def test_analyze_infinite_entry_is_precondition_error(tmp_path, capsys):
    doc = ('{"entries":[["-inf","0","-inf"],["2","-inf","-inf"],'
           '["0","-inf","1"]]}')
    path = _write(tmp_path, "m.json", doc)
    assert main(["analyze", "--input", path]) == EXIT_PRECONDITION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "precondition"


def test_analyze_bad_input_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "m.json", "{not json")
    assert main(["analyze", "--input", path]) == EXIT_INPUT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"


def test_analyze_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    main(["analyze", "--input", path])
    first = capsys.readouterr().out
    main(["analyze", "--input", path])
    assert capsys.readouterr().out == first


def test_figure_svg(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    out = str(tmp_path / "fig.svg")
    assert main(["figure", "--input", path,
                 "--viewport=-12,12,-12,12", "--out", out]) == EXIT_OK
    svg = open(out).read()
    assert svg.startswith("<?xml")
    assert 'id="antennas"' in svg and 'id="soma-outline"' in svg
    assert main(["figure", "--input", path,
                 "--viewport=-12,12,-12,12"]) == EXIT_OK
    assert capsys.readouterr().out == svg


# SHA-256 of the analyze JSON and the figure SVG (default viewport) of the
# README matrix, a {-1, 0, 1} matrix with many ties (3/9/7 cells) and a
# generic rational matrix; the arrangement feeds both outputs.
PINNED_OUTPUTS = [
    ([["0", "-5", "0"], ["-7", "0", "0"], ["-6", "-1", "0"]],
     "5546a0ce94db86b889a483387a856db111e75707e57c0deee122937affa241cb",
     "cf47944bef8369dd4a529bb6037c9ac6efe768161ffcfdc63cb68000a63351e5"),
    ([["0", "1", "0"], ["-1", "0", "1"], ["0", "-1", "0"]],
     "fc5f393c9997ba51f57c38c96a918148d134f60537ee8adc98335217dfdb3140",
     "eef08f496c2437882d58aa6926c8d164a863de7c65cf330d3c7f1f7f30baa54b"),
    ([["3/7", "-2", "5/3"], ["-11/5", "1/2", "4"], ["7/3", "-9/4", "0"]],
     "4ae1c049e4b566dbf82b07acf02ade018a659f988ed0dd8318e561ec4b97cb21",
     "1759fb19be1b1205ce083725383c25c76999655571f2461525daa3c2a9bdc8e2"),
]


@pytest.mark.parametrize("entries,analyze_sha,figure_sha", PINNED_OUTPUTS)
def test_analyze_and_figure_bytes_are_pinned(entries, analyze_sha, figure_sha,
                                             tmp_path, capsys):
    path = _write(tmp_path, "m.json", json.dumps({"entries": entries}))
    for command, want in (("analyze", analyze_sha), ("figure", figure_sha)):
        assert main([command, "--input", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, command


def test_figure_rejects_degenerate_viewport(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    assert main(["figure", "--input", path,
                 "--viewport=5,5,0,1"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_verify_small_run(capsys):
    code = main(["verify", "--seed", "7", "--trials", "2"])
    out = capsys.readouterr().out
    assert "semiring-laws: trials=2 pass" in out
    assert code in (0, 1)


def test_verify_seed_determinism(capsys):
    main(["verify", "--seed", "5", "--trials", "3"])
    first = capsys.readouterr().out
    main(["verify", "--seed", "5", "--trials", "3"])
    assert capsys.readouterr().out == first


def _input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input"
    return err["reason"]


def test_verify_rejects_bad_trials(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_INPUT_ERROR
    assert _input_error(capsys) == "trials must be >= 1"
    assert main(["verify", "--trials", "abc"]) == EXIT_INPUT_ERROR
    assert "--trials" in _input_error(capsys)


def test_verify_bounds_trials_before_running(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(verify, "run_all",
                        lambda seed, trials: calls.append(trials) or [])
    for trials in (MAX_TRIALS + 1, 10**20):
        assert main(["verify", "--trials", str(trials)]) == EXIT_INPUT_ERROR
        assert _input_error(capsys) == "trials must be <= 100000"
    assert calls == []
    assert main(["verify", "--trials", str(MAX_TRIALS)]) == EXIT_OK
    assert calls == [MAX_TRIALS]


@pytest.mark.parametrize("argv", [
    ["verify", "--bogus"],
    ["analyze", "--input", "m.json", "--bogus"],
    [],
    ["frobnicate"],
    ["verify", "--seed", "9" * 5000],
])
def test_usage_errors_are_json_input_errors(argv, capsys):
    assert main(argv) == EXIT_INPUT_ERROR
    assert _input_error(capsys)


@pytest.mark.parametrize("case", ["seed", "literal", "path"])
def test_echoed_reason_is_bounded(case, tmp_path, capsys):
    # each input echoes about 3-5 KB of itself into the reason
    if case == "seed":
        argv = ["verify", "--seed", "9" * 5000]
    elif case == "literal":
        doc = {"entries": [["a" * 3000, "0", "0"], ["0", "0", "0"],
                           ["0", "0", "0"]]}
        argv = ["analyze", "--input", _write(tmp_path, "m.json", json.dumps(doc))]
    else:
        argv = ["analyze", "--input", str(tmp_path / ("x" * 3000))]
    assert main(argv) == EXIT_INPUT_ERROR
    reason = _input_error(capsys)
    assert reason.endswith("... [truncated]")
    assert len(reason) == MAX_REASON_CHARS + len("... [truncated]")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--trials" in capsys.readouterr().out


def test_troplane_seed_is_read_only_by_verify(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    monkeypatch.setenv("TROPLANE_SEED", "abc")
    assert main(["analyze", "--input", path]) == EXIT_OK
    assert main(["figure", "--input", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--trials", "1"]) == EXIT_INPUT_ERROR
    assert "TROPLANE_SEED" in _input_error(capsys)
    # an explicit --seed wins over the variable
    assert main(["verify", "--seed", "7", "--trials", "1"]) in (0, 1)
    capsys.readouterr()


def test_troplane_seed_matches_explicit_seed(monkeypatch, capsys):
    main(["verify", "--seed", "7", "--trials", "2"])
    explicit = capsys.readouterr().out
    monkeypatch.setenv("TROPLANE_SEED", "7")
    main(["verify", "--trials", "2"])
    assert capsys.readouterr().out == explicit
    seeds = []
    monkeypatch.setattr(verify, "run_all",
                        lambda seed, trials: seeds.append(seed) or [])
    for env in ("7", "", None):
        if env is None:
            monkeypatch.delenv("TROPLANE_SEED")
        else:
            monkeypatch.setenv("TROPLANE_SEED", env)
        assert main(["verify", "--trials", "2"]) == EXIT_OK
    assert main(["verify", "--seed", "3", "--trials", "2"]) == EXIT_OK
    assert seeds == [7, 0, 0, 3]


def test_analyze_directory_input_is_input_error(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path)]) == EXIT_INPUT_ERROR
    assert "cannot read input" in _input_error(capsys)


def test_analyze_missing_input_is_input_error(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    assert main(["analyze", "--input", path]) == EXIT_INPUT_ERROR
    assert "cannot read input" in _input_error(capsys)


def test_analyze_non_utf8_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"entries": "\xff\xfe"}')
    assert main(["analyze", "--input", str(path)]) == EXIT_INPUT_ERROR
    assert "utf-8" in _input_error(capsys)


def test_figure_output_to_directory_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    assert main(["figure", "--input", path,
                 "--out", str(tmp_path)]) == EXIT_INPUT_ERROR
    assert "cannot write output" in _input_error(capsys)


def test_parse_matrix_rejects_deep_nesting_and_huge_json_integers():
    with pytest.raises(ParseError):
        parse_matrix('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ParseError):
        parse_matrix('{"entries": 1' + "0" * 5000 + "}")


class _NoParse(Fraction):
    """Stands in for Fraction: fails the test if a literal reaches it."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError(f"literal parsed: {args!r}")


def test_literal_bound_rejects_just_above_threshold_before_parsing(monkeypatch):
    assert (MAX_LITERAL_DIGITS, MAX_EXPONENT) == (100, 100)
    monkeypatch.setattr(scalars, "Fraction", _NoParse)
    too_big = [
        "1" * 101,
        "-" + "9" * 50 + "/" + "7" * 51,
        "0." + "0" * 100,
        "1e101",
        "-1E-101",
        "1e+00000101",
        "1e99999",
        "1e" + "9" * 5000,
    ]
    for literal in too_big:
        with pytest.raises(ParseError):
            as_fraction(literal)


def test_literal_bound_accepts_the_threshold():
    assert as_fraction("1" * 100) == int("1" * 100)
    assert as_fraction("9" * 50 + "/" + "7" * 50) == Fraction(
        int("9" * 50), int("7" * 50))
    assert as_fraction("1e100") == 10**100
    assert as_fraction("-1E-100") == Fraction(-1, 10**100)
    assert as_fraction("1e+00000100") == 10**100


def test_analyze_rejects_oversized_entry(tmp_path, capsys):
    doc = ('{"entries":[["0","1e99999","0"],["-7","0","0"],'
           '["-6","-1","0"]]}')
    path = _write(tmp_path, "m.json", doc)
    assert main(["analyze", "--input", path]) == EXIT_INPUT_ERROR
    assert "entry (1,2)" in _input_error(capsys)


def test_figure_viewport_bound(tmp_path, capsys):
    path = _write(tmp_path, "m.json", TWO_ANTENNA_DOC)
    assert main(["figure", "--input", path,
                 "--viewport=0,1e99999,0,1"]) == EXIT_INPUT_ERROR
    assert "exponent" in _input_error(capsys)
    assert main(["figure", "--input", path,
                 "--viewport=0,1e100,0,1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("<?xml")


def test_figure_with_entries_past_fifty_digits(tmp_path, capsys):
    doc = ('{"entries":[["0","-1e60","0"],["-7","0","0"],'
           '["-6","-1","0"]]}')
    path = _write(tmp_path, "m.json", doc)
    assert main(["figure", "--input", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "-1" + "0" * 60 + ".000000" in captured.out
