import io
import json
import sys
from pathlib import Path

import pytest

from jtcalc.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, monkeypatch=None, env=None):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_dominance_command():
    code, out, _ = run_cli(["dominance", "[2]+[1]", "[3]", "--p", "3"])
    assert code == 0
    assert out.strip() == "[2]+[1] <= [3]: true"
    code, out, _ = run_cli(["dominance", "[3]", "[2]+[1]", "--p", "3"])
    assert "false" in out
    code, out, _ = run_cli(["dominance", "[2]", "[3]", "--p", "3"])
    assert "incomparable" in out


def test_tensor_perp_power_commands():
    code, out, _ = run_cli(["tensor", "[2]", "[2]", "--p", "3"])
    assert code == 0 and "[3]+[1]" in out
    code, out, _ = run_cli(["perp", "2[2]", "--p", "3"])
    assert "2[1]" in out
    code, out, _ = run_cli(["power", "[5]", "--j", "2", "--p", "5"])
    assert "[3]+[2]" in out


def test_jt_command_with_chart_point():
    args = ["jt", "--p", "3", "--chart", "sl2_line", "--r", "2",
            "--module", "Sym(1,Std(2))*Tw(1,Sym(1,Std(2)))", "--point", "0,1,0,1,1"]
    code, out, _ = run_cli(args)
    assert code == 0
    assert "jordan_type=[3]+[1]" in out
    # constraint-violating point is a usage error
    bad = args[:-1] + ["1,1,1,1,1"]
    code, _, err = run_cli(bad)
    assert code == 2 and "constraint" in err


def test_jt_homotopy_variant():
    args = ["jt", "--p", "3", "--chart", "sl2_line", "--r", "2",
            "--module", "Std(2)*Tw(1,Std(2))", "--point", "0,1,0,1,1",
            "--variant", "homotopy", "--hs", "1", "--ht", "1"]
    code, out, _ = run_cli(args)
    assert code == 0 and "jordan_type=" in out


def test_missing_module_is_usage_error():
    code, _, err = run_cli(["jt", "--p", "3", "--chart", "sl2_line", "--point", "0,1,0,1"])
    assert code == 2


def test_strata_jsonl_deterministic(monkeypatch):
    args = ["strata", "--p", "3", "--chart", "sl2_line", "--r", "2",
            "--module", "Std(2)*Tw(1,Std(2))", "--format", "jsonl", "--seed", "0"]
    monkeypatch.setenv("JTCALC_THREADS", "1")
    _, out1, _ = run_cli(args)
    monkeypatch.setenv("JTCALC_THREADS", "3")
    _, out2, _ = run_cli(args)
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert all(r["schema"] == 1 and r["command"] == "strata" for r in records)
    type_rows = [r for r in records if "type" in r]
    assert {r["type"] for r in type_rows} == {"2[2]", "[3]+[1]"}


def test_strata_csv_matches_golden():
    """The one CSV writer (`cli._emit`): representatives, lists of quoted strings with commas,
    are quoted and their quotes doubled."""
    code, out, _ = run_cli(["strata", "--p", "3", "--chart", "sl2_line", "--r", "2",
                            "--module", "Std(2)*Tw(1,Std(2))", "--format", "csv"])
    assert code == 0
    assert out == (GOLDEN / "strata_sl2_line_gf3.csv").read_text()


def test_closed_command_exit_codes():
    args = ["closed", "--p", "3", "--chart", "sl2_line", "--r", "2",
            "--module", "Std(2)*Tw(1,Std(2))", "--type", "2[2]"]
    code, out, _ = run_cli(args)
    assert code == 0 and "ok=True" in out


def test_semicont_command(tmp_path):
    curve = tmp_path / "curve.txt"
    curve.write_text("a=0\nb=1\nc=0\nl0=0,1\nl1=1\n")
    args = ["semicont", "--p", "3", "--chart", "sl2_line", "--r", "2",
            "--module", "Std(2)*Tw(1,Std(2))", "--curve-file", str(curve)]
    code, out, _ = run_cli(args)
    assert code == 0
    assert "generic=[3]+[1]" in out and "special=2[2]" in out
    # seeded builtin curves need a seed
    args2 = ["semicont", "--p", "3", "--chart", "sl2_line", "--r", "2",
             "--module", "Std(2)*Tw(1,Std(2))", "--curves", "2"]
    code2, _, err2 = run_cli(args2)
    assert code2 == 2 and "seed" in err2


def test_minors_command():
    args = ["minors", "--p", "3", "--chart", "sl2_line", "--r", "2",
            "--module", "Std(2)*Tw(1,Std(2))", "--j", "1", "--d", "1"]
    code, out, _ = run_cli(args)
    assert code == 0
    assert "count=" in out.splitlines()[0]


def test_config_file_and_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nchart=sl2_line\nmodule=Std(2)*Tw(1,Std(2))\n")
    code, out, _ = run_cli(["jt", "--config", str(cfg), "--r", "2", "--point", "0,1,0,1,1"])
    assert code == 0 and "jordan_type=" in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("p=3\nmystery=1\n")
    code, _, err = run_cli(["jt", "--config", str(bad), "--point", "0"])
    assert code == 2 and "unknown config keys" in err


def test_explicit_file_module(tmp_path):
    mod = tmp_path / "m.txt"
    mod.write_text(
        "field GF(3)\nsize 3\nheight 2\nmatrix\n0 1 0\n0 0 1\n0 0 0\nmatrix\n0 0 1\n0 0 0\n0 0 0\n"
    )
    args = ["strata", "--p", "3", "--chart", "ga_r", "--r", "2",
            "--module", f"Explicit(file={mod})", "--format", "csv", "--seed", "0"]
    code, out, _ = run_cli(args)
    assert code == 0
    assert out.splitlines()[0].startswith("chart,")


def test_suite_quick_level():
    code, out, _ = run_cli(["suite", "--level", "quick"])
    assert code == 0
    assert "hard failures" in out
    assert "0 hard failures" in out


@pytest.mark.parametrize("option", [["--seed", "1"], ["--p", "3"]])
def test_suite_takes_no_seed_or_characteristic(option):
    """Each check of the suite has its own fixed seed and characteristic."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["suite", "--level", "quick", *option])
    assert exc.value.code == 2


def test_usage_without_command():
    code, _, _ = run_cli([])
    assert code == 2


def test_config_file_values_apply_unless_a_flag_is_given(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nchart=sl2_line\nr=2\nmodule=Std(2)*Tw(1,Std(2))\n"
                   "variant=homotopy\nformat=jsonl\ns=1\nt=2\n")
    code, out, _ = run_cli(["jt", "--config", str(cfg), "--point", "0,1,0,1,1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["variant"] == "homotopy" and rec["command"] == "jt"
    code, out, _ = run_cli(["jt", "--config", str(cfg), "--point", "0,1,0,1,1",
                            "--variant", "full", "--format", "text"])
    assert code == 0
    assert out.startswith("point=") and "variant=full" in out


def test_config_file_sweep_options(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nchart=sl2_line\nr=1\nmodule=Std(2)\nformat=jsonl\n"
                   "budget=1\nsamples=5\nseed=2\nmax_reps=1\n")
    code, out, _ = run_cli(["strata", "--config", str(cfg)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1]["swept"] == 5 and records[-1]["mode"] == "sampled"
    assert all(len(r["representatives"]) == 1 for r in records if "type" in r)
    code, out, _ = run_cli(["strata", "--config", str(cfg), "--samples", "7"])
    assert json.loads(out.splitlines()[-1])["swept"] == 7


def test_config_file_rejects_a_bad_choice(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nchart=sl2_line\nmodule=Std(2)\nvariant=sideways\n")
    code, _, err = run_cli(["jt", "--config", str(cfg), "--point", "0,1,0,1"])
    assert code == 2 and "variant" in err


def test_config_file_values_that_do_not_parse_name_their_key_and_line(tmp_path):
    """A non-integer value, or a value that is not one of the key's choices, is a parse error
    (exit 2) naming the key and the line it is on."""
    cfg = tmp_path / "run.cfg"
    base = "p=3\nchart=sl2_line\nr=1\nmodule=Std(2)\n"
    for bad, key in (("budget=1e3", "budget"), ("seed=two", "seed"), ("samples=", "samples"),
                     ("format=yaml", "format"), ("variant=sideways", "variant")):
        cfg.write_text(base + "# a comment\n\n" + bad + "\n")
        code, out, err = run_cli(["strata", "--config", str(cfg)])
        assert code == 2 and out == "", bad
        assert f"parse error: config key {key}: " in err and "(line 7)" in err, err
        assert "Traceback" not in err
    cfg.write_text(base + "budget=1e3\n")
    code, _, err = run_cli(["strata", "--config", str(cfg)])
    assert "parse error: config key budget: '1e3' is not an integer (line 5)" in err
    # a flag given on the command line wins, so the file value is not read
    code, out, _ = run_cli(["strata", "--config", str(cfg), "--budget", "100", "--seed", "0",
                            "--format", "jsonl"])
    assert code == 0 and json.loads(out.splitlines()[-1])["swept"] > 0


def test_config_line_echoes_the_set_options(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nchart=sl2_line\nr=1\nmodule=Std(2)\n")
    code, _, err = run_cli(["strata", "--config", str(cfg), "--format", "jsonl", "--seed", "2"])
    assert code == 0
    echo = json.loads(err.splitlines()[0].removeprefix("config: "))
    assert echo == {"budget": "1000000", "chart": "sl2_line", "command": "strata", "max_reps": "4",
                    "module": "Std(2)", "p": "3", "r": "1", "samples": "10000", "seed": "2",
                    "variant": "full"}


def test_homotopy_is_accepted_only_by_jt(tmp_path):
    """Only `jt` reads --hs/--ht; every other command rejects the homotopy variant."""
    sweep = ["--p", "3", "--chart", "sl2_line", "--r", "2", "--module", "Sym(2,Std(2))"]
    commands = [
        ["strata"] + sweep,
        ["closed"] + sweep + ["--type", "[3]"],
        ["minors"] + sweep + ["--d", "1"],
        ["semicont"] + sweep + ["--seed", "1", "--curves", "1"],
    ]
    for args in commands:
        try:
            code = run_cli(args + ["--variant", "homotopy"])[0]
        except SystemExit as exc:
            code = exc.code
        assert code == 2, args[0]
        cfg = tmp_path / f"{args[0]}.cfg"
        cfg.write_text("variant=homotopy\n")
        code, _, err = run_cli(args + ["--config", str(cfg)])
        assert code == 2 and "variant" in err, args[0]
        assert run_cli(args + ["--variant", "exp"])[0] == 0, args[0]
    code, out, _ = run_cli(["jt"] + sweep + ["--point", "0,1,0,1,1", "--variant", "homotopy",
                                             "--format", "jsonl"])
    assert code == 0 and json.loads(out)["variant"] == "homotopy"


CHART = "name c\nfield GF(3)\nkind gl\nr 1\nN 2\nparams a\ntemplate\n0 a\n0 0\n"


def test_malformed_chart_files_name_the_line(tmp_path):
    cases = [
        (CHART.replace("r 1", "r two"), "r must be an integer, found 'two' (line 4)"),
        (CHART.replace("params a", "params a:x"), "the weight of a must be an integer, found 'x' (line 6)"),
        (CHART.replace("0 0\n", "0\n"), "template grid must be 2 x 2 (line 7)"),
    ]
    path = tmp_path / "chart.txt"
    for text, message in cases:
        path.write_text(text)
        code, _, err = run_cli(["strata", "--p", "3", "--chart-file", str(path), "--module", "Std(2)"])
        assert code == 2 and f"error: {message}\n" in err
        assert "invalid literal" not in err and "Traceback" not in err
    path.write_text(CHART)
    assert run_cli(["strata", "--p", "3", "--chart-file", str(path), "--module", "Std(2)"])[0] == 0


EXPLICIT = "field GF(3)\nsize 2\nheight 1\nmatrix\n0 1\n0 0\n"


def test_malformed_explicit_files_name_the_line(tmp_path):
    cases = [
        (EXPLICIT.replace("field GF(3)", "field"), "bad field spec '' (line 1)"),
        (EXPLICIT.replace("size 2", "size"), "size must be a positive integer, found '' (line 2)"),
        (EXPLICIT.replace("size 2", "size two"), "size must be a positive integer, found 'two' (line 2)"),
        (EXPLICIT.replace("0 1\n", "(1,x) 1\n"), "bad matrix entry '(1,x)' (line 5)"),
        (EXPLICIT.replace("field GF(3)", "field GF()"), "bad field spec 'GF()' (line 1)"),
        (EXPLICIT.replace("0 0\n", ""), "matrix 0 has 1 rows, expected 2 (line 4)"),
        (EXPLICIT.replace("height 1", "height 2"), "height 2 but 1 matrices (line 4)"),
        (EXPLICIT + "size 3\n", "size line after the first matrix (line 7)"),
    ]
    path = tmp_path / "module.txt"
    for text, message in cases:
        path.write_text(text)
        code, _, err = run_cli(["jt", "--p", "3", "--chart", "ga_r", "--module", f"Explicit(file={path})",
                                "--point", "1"])
        assert code == 2 and f"parse error: {message}\n" in err, err
        assert "Traceback" not in err
    path.write_text(EXPLICIT)
    assert run_cli(["jt", "--p", "3", "--chart", "ga_r", "--module", f"Explicit(file={path})",
                    "--point", "1"])[0] == 0


def _tuple_file_jt(path, *options):
    return run_cli(["jt", *options, "--module", "Std(2)*Tw(1,Std(2))", "--tuple-file", str(path),
                    "--format", "jsonl"])


@pytest.mark.parametrize("variant", ["full", "exp", "homotopy"])
def test_tuple_file_over_another_field_is_refused(tmp_path, variant):
    """A GF(3) tuple is not a point over GF(5): the run names both fields and reports nothing.
    Over GF(3) and its extension GF(9) it is a point, of the same type."""
    path = tmp_path / "tuple.txt"
    path.write_text("field GF(3)\nsize 2\nmatrix\n0 1\n0 0\nmatrix\n0 2\n0 0\n")
    code, out, err = _tuple_file_jt(path, "--p", "5", "--variant", variant)
    assert code == 2 and out == "" and "GF(3)" in err and "GF(5)" in err, err
    reports = [_tuple_file_jt(path, *field, "--variant", variant) for field in (["--p", "3"], ["--field", "GF(9)"])]
    assert [code for code, _, _ in reports] == [0, 0]
    assert len({json.loads(out)["jordan_type"] for _, out, _ in reports}) == 1
    # a field of the same order with another modulus is another field
    path.write_text("field GF(9)\nsize 2\nmatrix\n0 (0,1)\n0 0\n")
    code, out, err = _tuple_file_jt(path, "--field", "GF(3^2; modulus=x^2+1)", "--variant", variant)
    assert code == 2 and out == "" and "GF(3^2; modulus=x^2+2x+2) into GF(3^2; modulus=x^2+1)" in err, err


def test_tuple_file_is_checked_once_as_a_commuting_tuple(tmp_path, monkeypatch):
    """A tuple file is read by the module file parser (a malformed one names the line), then
    checked once, as a point, not first as an Explicit module."""
    import jtcalc.modules as modules_mod

    calls = []
    check = modules_mod.validate_commuting_tuple
    monkeypatch.setattr(modules_mod, "validate_commuting_tuple", lambda *a: calls.append(1) or check(*a))
    path = tmp_path / "tuple.txt"
    path.write_text(EXPLICIT.replace("0 1\n", "1 1\n"))
    code, out, err = _tuple_file_jt(path, "--p", "3")
    assert code == 2 and out == "" and "error: matrix 0 is not 3-nilpotent\n" in err, err
    assert "Explicit" not in err
    path.write_text(EXPLICIT.replace("0 1\n", "(1,x) 1\n"))
    code, _, err = _tuple_file_jt(path, "--p", "3")
    assert code == 2 and "parse error: bad matrix entry '(1,x)' (line 5)\n" in err, err
    path.write_text(EXPLICIT)
    assert _tuple_file_jt(path, "--p", "3")[0] == 0
    assert calls == []


def test_homotopy_type_checks_exp_and_full_before_ranking(monkeypatch):
    """`jt --variant homotopy` checks theta_exp and theta_full to vanish at the p-th power, and
    ranks their sum once: the final power of its rank profile is the sum's one check."""
    from jtcalc import theta

    checked = []
    check = theta._check_vanishes
    monkeypatch.setattr(theta, "_check_vanishes", lambda ring, op, name: checked.append(name) or check(ring, op, name))
    code, out, err = run_cli(["jt", "--p", "3", "--chart", "sl2_line", "--r", "3", "--module",
                              "Sym(2,Std(2))*Tw(2,Std(2))", "--point", "0,1,0,1,0,0", "--variant", "homotopy",
                              "--hs", "1", "--ht", "1", "--format", "jsonl"])
    assert code == 0, err
    assert out == (GOLDEN / "jt_sl2_line_gf3_r3_homotopy.jsonl").read_text()
    assert checked == ["exp", "full"]


# the flags each command used to offer and never read
UNREAD_FLAGS = [
    (command, flag)
    for command, flags in [
        (["jt", "--point", "0,1,0,1,1"], ["--budget", "--samples", "--seed"]),
        (["minors", "--d", "1"], ["--budget", "--samples", "--seed", "--hs", "--ht"]),
        (["semicont", "--seed", "1"], ["--budget", "--samples", "--hs", "--ht"]),
        (["strata"], ["--hs", "--ht"]),
        (["closed", "--type", "[3]+[1]"], ["--hs", "--ht"]),
    ]
    for flag in flags
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[f"{c[0]}{f}" for c, f in UNREAD_FLAGS])
def test_commands_reject_flags_they_do_not_read(command, flag):
    args = command + ["--p", "3", "--chart", "sl2_line", "--r", "2", "--module", "Std(2)*Tw(1,Std(2))"]
    assert run_cli(args)[0] in (0, 1)
    with pytest.raises(SystemExit) as exc:
        run_cli(args + [flag, "1"])
    assert exc.value.code == 2


def test_malformed_curve_files_name_the_line(tmp_path):
    cases = [
        ("a=0,1\nb=\n", "parse error: bad coefficient list '' (line 2)"),
        ("a=x\n", "parse error: bad coefficient list 'x' (line 1)"),
        ("a=0,1\n=1\n", "parse error: expected param=c0,c1,..., found '=1' (line 2)"),
        ("a=0,1\nl0\n", "parse error: expected param=c0,c1,..., found 'l0' (line 2)"),
        ("z=1\n", "error: parameter 'z' is not one of the chart's or is repeated (line 1)"),
        ("a=1\na=0,1\n", "error: parameter 'a' is not one of the chart's or is repeated (line 2)"),
    ]
    path = tmp_path / "curve.txt"
    sweep = ["semicont", "--p", "3", "--chart", "sl2_line", "--r", "1", "--module", "Std(2)",
             "--curve-file", str(path)]
    for text, message in cases:
        path.write_text(text)
        code, _, err = run_cli(sweep)
        assert code == 2 and f"{message}\n" in err, err
        assert "invalid literal" not in err and "Traceback" not in err
    path.write_text("b=0,1\nl0=1\n")
    assert run_cli(sweep)[0] == 0


def test_negative_counts_exit_2_and_zero_stays_valid():
    sl2 = ["--p", "3", "--chart", "sl2_line", "--r", "2", "--module", "Std(2)*Tw(1,Std(2))"]
    code, out, err = run_cli(["semicont"] + sl2 + ["--curves", "-2", "--seed", "1"])
    assert code == 2 and out == "" and "curve count -2 is negative" in err
    code, out, _ = run_cli(["semicont"] + sl2 + ["--curves", "0", "--seed", "1"])
    assert code == 0 and out == ""
    sampled = sl2 + ["--budget", "10", "--seed", "1"]
    for command in (["strata"], ["closed", "--type", "[3]+[1]"]):
        code, out, err = run_cli(command + sampled + ["--samples", "-3"])
        assert code == 2 and out == "" and "sample count -3 is negative" in err
    code, out, _ = run_cli(["strata"] + sampled + ["--samples", "0"])
    assert code == 0 and "swept=0" in out
    # an exhaustive sweep draws no samples, so it ignores the count
    code, out, _ = run_cli(["strata"] + sl2 + ["--samples", "-3"])
    assert code == 0 and "mode=exhaustive" in out


@pytest.mark.parametrize("field, value", [
    ("GF(9)", "g^2"), ("GF(9)", "gg"), ("GF(9)", "g5"), ("GF(9)", ""), ("GF(9)", "2g+"), ("GF(9)", "1x"),
    ("GF(27)", "g^3"), ("GF(27)", "g^"), ("GF(9)", "2 g"), ("GF(3)", "1x"), ("GF(3)", ""), ("GF(3)", "g"),
])
def test_malformed_point_values_are_parse_errors(field, value):
    args = ["jt", "--field", field, "--chart", "sl2_line", "--r", "2", "--module", "Std(2)",
            "--point", f"{value},0,0,0,0"]
    code, out, err = run_cli(args)
    assert code == 2 and out == "", err
    assert f"parse error: {value!r} is not an element of" in err
    assert "Traceback" not in err and "invalid literal" not in err


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3)])
def test_every_printed_element_parses_back(p, n):
    from jtcalc.fields import GF
    from jtcalc.strata import _parse_element

    field = GF(p, n)
    for a in field.elements():
        text = field.element_to_str(a)
        assert _parse_element(text, field) == a
        assert _parse_element(f" {text.replace('+', ' + ')} ", field) == a
    assert _parse_element("-g+4", field) == field.element([4, -1] + [0] * (n - 2))


def test_zero_dimensional_closed_raises_what_strata_raises(tmp_path):
    # a module of dimension 0 has no minors, so no theta over the chart's polynomial ring meets
    # it before the sweep: the first invalid tuple raises, before Ext(4,Std(3)) meets a 2 x 2 point
    path = tmp_path / "chart.txt"
    path.write_text("name c\nfield GF(3)\nkind gl\nr 2\nN 2\nparams a:1 b:1\n"
                    "template\n0 a\nb 0\ntemplate\n0 0\n0 0\n")
    sweep = ["--field", "GF(9)", "--chart-file", str(path), "--module", "Ext(4,Std(3))", "--format", "jsonl"]
    for command in (["strata"], ["closed", "--type", "0"]):
        code, out, err = run_cli(command + sweep)
        assert code == 2 and out == "" and "error: matrix 0 is not 3-nilpotent\n" in err, err
