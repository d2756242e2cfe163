"""Text fuzzing of the chart, Explicit and curve-file parsers.

A malformed file must raise a `ParseError` or `ChartError` that names a
line, and the command that reads it must exit with code 2 and print that
message, never a traceback.  Inputs are valid files with lines deleted,
duplicated, cut short or replaced by drawn text, and text drawn whole.  A
well-formed Explicit file whose matrices do not commute or are not
p-nilpotent is not malformed: it raises `NotNilpotentError`, also exit 2.
"""

import io
import os
import re
import sys
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jtcalc.cli import main
from jtcalc.errors import ChartError, NotNilpotentError, ParseError
from jtcalc.modules import load_explicit_file
from jtcalc.strata import builtin_chart, parse_chart, parse_curve_coeffs

CHARTS = [
    "name e_line\nfield GF(3)\nkind gl\nr 2\nN 2\nparams a0:1 a1:3\ntemplate\n0 a0\n0 0\ntemplate\n0 a1\n0 0\n",
    "name cone\nfield GF(5)\nkind gl\nr 1\nN 2\nparams a b c\ntemplate\na b\nc -a\nconstraint a^2 + b*c\n",
    "name line\nfield GF(3)\nkind ga\nr 2\nN 1\nparams x y:3\ntemplate\nx\ntemplate\ny\n",
]
EXPLICITS = [
    "field GF(3)\nsize 3\nheight 2\nmatrix\n0 1 0\n0 0 1\n0 0 0\nmatrix\n0 0 1\n0 0 0\n0 0 0\n",
    "# over GF(9)\nfield GF(9)\nsize 2\nmatrix\n0 (1,2)\n0 0\n",
]
CURVES = ["a=0,1\nb=1\nc=0,0,2\nl0=1,1\n", "# a line\nb=0,1\nl0=1\n"]
CURVE_CHART = builtin_chart("sl2_line", 3, r=1)

# short pieces of every grammar, so drawn text is near-valid more often than not
WORDS = ["field", "size", "height", "matrix", "name", "kind", "r", "N", "params", "template", "constraint",
         "gl", "ga", "GF(3)", "GF(9)", "GF(", "GF(3^2; modulus=x^2+1)", "GF(3^7)", "GF(4)", "a", "a0", "b",
         "l0", "x", "z", "=", ",", ":", "(", ")", "(1,2)", "(1,x)", "0", "1", "-1", "2", "07", "", " ", "#"]
text_pieces = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
    st.text(alphabet="abcrxNGF()^;=,:+-*0123 #", max_size=8),
)
LOCATED = re.compile(r"\(line \d+[,)]|unexpected line \d+")


@st.composite
def mutated(draw, bases):
    """A base file with up to three line edits, or drawn text alone."""
    if draw(st.integers(0, 9)) == 0:
        return "\n".join(draw(st.lists(text_pieces, max_size=6)))
    lines = draw(st.sampled_from(bases)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "cut", "replace", "value"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif edit == "replace":
            lines[i] = draw(text_pieces)
        else:
            # keep the line's keyword, replace what follows it
            head = re.split(r"[ =]", lines[i], maxsplit=1)[0]
            lines[i] = head + draw(st.sampled_from([" ", "="])) + draw(text_pieces)
    return "\n".join(lines) + "\n"


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = saved
    return code, err.getvalue()


def check(text, parse, command):
    """parse(text) succeeds or raises a located ParseError/ChartError, which `command` reports with exit 2."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        try:
            parse(path)
        except (ParseError, ChartError) as exc:
            assert LOCATED.search(str(exc)), str(exc)
            code, err = _run(command(path))
            assert code == 2 and f"error: {exc}\n" in err, err
        except NotNilpotentError:
            code, err = _run(command(path))
            assert code == 2 and "Traceback" not in err
    finally:
        os.unlink(path)


def _read(path):
    with open(path) as fh:
        return fh.read()


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated(CHARTS))
def test_chart_files(text):
    check(text, lambda path: parse_chart(_read(path)),
          lambda path: ["strata", "--p", "3", "--chart-file", path, "--module", "Std(2)"])


@FUZZ
@given(mutated(EXPLICITS))
def test_explicit_files(text):
    check(text, load_explicit_file,
          lambda path: ["jt", "--p", "3", "--chart", "ga_r", "--module", f"Explicit(file={path})", "--point", "1"])


@FUZZ
@given(mutated(CURVES))
def test_curve_files(text):
    check(text, lambda path: parse_curve_coeffs(_read(path), CURVE_CHART),
          lambda path: ["semicont", "--p", "3", "--chart", "sl2_line", "--r", "1", "--module", "Std(2)",
                        "--curve-file", path])
