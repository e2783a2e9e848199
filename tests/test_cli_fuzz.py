"""Fuzz the CLI front end: no input may end in a traceback.

Every document fed to ``troplane analyze`` and ``troplane figure`` must end
in exit 0, 2 or 3.  On 0 nothing goes to stderr; on 2 or 3 stdout stays empty
and stderr holds exactly one JSON object naming the error class.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplane.cli import main

RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(str)
# mantissa and exponent inside the literal size bound
BIG = st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-100, 100))
ODD_LITERALS = st.sampled_from([
    "+inf", "inf", "nan", "-inf ", "1/0", "0/0", "1e99999", "-1e-99999",
    "1e101", "1e100", "1" * 101, "1" * 100, "9" * 50 + "/" + "7" * 51,
    "1_000", " 3/4 ", ".5", "5.", "1e", "e5", "--1", "1/-2", "٣",
    "1e" + "9" * 5000, "",
])
# exponents just past the literal bound up to a million digits' worth
HUGE = st.builds("{}e{}{}".format, st.integers(1, 9),
                 st.sampled_from(["", "+", "-"]), st.integers(101, 10**6))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16)

FINITE = st.one_of(RATIONAL, BIG)
ENTRY_OK = st.one_of(FINITE, st.just("-inf"))
ODD_ENTRY = st.one_of(HUGE, ODD_LITERALS, st.text(max_size=10), JSON_VALUES)
ENTRY_ANY = st.one_of(ENTRY_OK, ODD_ENTRY)


def _matrix_doc(entry):
    row = st.lists(entry, min_size=3, max_size=3)
    return st.lists(row, min_size=3, max_size=3).map(
        lambda rows: json.dumps({"entries": rows}))


def _put(rows, k, entry):
    rows[k // 3][k % 3] = entry
    return json.dumps({"entries": rows})


# a finite matrix with one entry replaced by an odd one
ONE_ODD_ENTRY = st.builds(
    _put, st.lists(st.lists(FINITE, min_size=3, max_size=3), min_size=3,
                   max_size=3),
    st.integers(0, 8), ODD_ENTRY)

DOCUMENTS = st.one_of(
    _matrix_doc(FINITE),
    _matrix_doc(ENTRY_OK),
    ONE_ODD_ENTRY,
    ONE_ODD_ENTRY,
    _matrix_doc(ENTRY_ANY),
    JSON_VALUES.map(json.dumps),
    st.dictionaries(st.sampled_from(["entries", "x"]), JSON_VALUES,
                    max_size=2).map(json.dumps),
    st.text(max_size=40),
    st.integers(1, 100_000).map(lambda n: '{"entries": ' + "[" * n + "]" * n + "}"),
    st.integers(4300, 6000).map(lambda n: '{"entries": 1' + "0" * n + "}"),
).map(lambda text: text.encode("utf-8", "surrogatepass"))
RAW_BYTES = st.binary(max_size=64)
VIEWPORTS = st.one_of(
    st.none(),
    st.lists(st.one_of(RATIONAL, BIG, ODD_LITERALS), min_size=4,
             max_size=4).map(",".join),
    st.text(max_size=20),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "matrix.json"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check(rc, out, err):
    assert rc in (0, 2, 3), (rc, err)
    assert "Traceback" not in err
    if rc == 0:
        assert err == ""
        assert out
        return
    assert out == ""
    doc = json.loads(err)  # exactly one JSON object
    assert isinstance(doc, dict)
    assert doc["error"] == {2: "input", 3: "precondition"}[rc]


@settings(max_examples=150)
@given(data=st.one_of(DOCUMENTS, RAW_BYTES))
def test_fuzz_analyze(input_path, data):
    input_path.write_bytes(data)
    _check(*_run(["analyze", "--input", str(input_path)]))


@settings(max_examples=60)
@given(data=st.one_of(DOCUMENTS, RAW_BYTES), viewport=VIEWPORTS)
def test_fuzz_figure(input_path, data, viewport):
    input_path.write_bytes(data)
    argv = ["figure", "--input", str(input_path)]
    if viewport is not None:
        argv.append(f"--viewport={viewport}")
    _check(*_run(argv))
