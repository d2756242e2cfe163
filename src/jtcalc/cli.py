"""
Command-line entry point.

Commands: jt, strata, minors, closed, semicont, tensor, dominance, perp,
power, suite.  Reports are deterministic for a fixed (config, seed): the
machine formats (jsonl, csv) carry no timing or host information; a human
timing summary goes to stderr.  Exit codes: 0 success, 1 property violation,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import JTCalcError, ParseError
from .fields import GF
from .jordan import (
    dominance_leq_checked,
    jt_perp,
    jt_power,
    jt_tensor,
    parse_jordan_type,
)
from .modules import load_explicit_file, parse_module_expr, read_tuple_file
from .parsing import parse_field_spec
from .strata import (
    builtin_chart,
    builtin_curves,
    curve_from_coeffs,
    parse_chart,
    parse_curve_coeffs,
    rank_locus_minors,
    semicontinuity_check,
    tabulate_jt,
    verify_closed_stratum,
)
from .suite import run_suite
from .theta import CommutingTuple, jt_at_point, jt_homotopy_at_point

SCHEMA_VERSION = 1


def _echo(args):
    """The run's command and options, as the `config:` line shows them: every option that is
    set, as a string, but the config, output and format."""
    skip = {"config", "output", "format"}
    return {k: str(v) for k, v in vars(args).items() if v is not None and k not in skip}


def _emit(records, fmt, out, echo):
    if fmt == "jsonl":
        for rec in records:
            rec = {"schema": SCHEMA_VERSION, "command": echo, **rec}
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "csv":
        if records:
            keys = sorted({k for rec in records for k in rec})
            out.write(",".join(keys) + "\n")
            for rec in records:
                out.write(",".join(_csv_cell(rec.get(k, "")) for k in keys) + "\n")
    else:
        for rec in records:
            out.write("  ".join(f"{k}={_plain(v)}" for k, v in rec.items()) + "\n")


def _csv_cell(v):
    s = _plain(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _plain(v):
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _load_config_file(path):
    """{key: (value, line number)} of a flat key=value file; a later line of a key wins."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", line=lineno, column=1)
            key, _, value = line.partition("=")
            options[key.strip()] = (value.strip(), lineno)
    return options


_KNOWN_KEYS = {
    "p", "field", "chart", "chart_file", "module", "variant", "s", "t", "j", "d",
    "budget", "samples", "seed", "format", "output", "point", "tuple_file",
    "type", "curves", "curve_file", "level", "max_reps", "r", "N", "s_lines",
}
_INT_KEYS = {"p", "r", "N", "s_lines", "j", "d", "budget", "samples", "seed", "max_reps", "hs", "ht",
             "curves"}
_CHOICES = {"variant": ("full", "exp"), "format": ("text", "jsonl", "csv")}
# `jt` alone reads --hs/--ht, so only it offers them and the homotopy operator
_JT_VARIANTS = _CHOICES["variant"] + ("homotopy",)
# Option defaults, applied after the config file so that only a flag given on
# the command line overrides a file value.
_DEFAULTS = {"variant": "full", "hs": 1, "ht": 1, "budget": 10**6, "samples": 10**4,
             "format": "text", "max_reps": 4, "j": 1, "curves": 10}


def _parser():
    ap = argparse.ArgumentParser(prog="jtcalc", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    def common(sp, *, variants=_CHOICES["variant"], seed=False, sweep=False):
        """The options of the commands that evaluate a module on a chart; a seed and the sweep
        sizes only for the commands that read them."""
        sp.add_argument("--config", help="flat key=value config file; flags override")
        sp.add_argument("--p", type=int)
        sp.add_argument("--field", help='e.g. "GF(3)", "GF(9)", "GF(3^2; modulus=x^2+2x+2)"')
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--s-lines", type=int, default=None, dest="s_lines",
                        help="number of additive lines for multi_ga")
        sp.add_argument("--chart", help="builtin chart name")
        sp.add_argument("--chart-file", help="chart config file")
        sp.add_argument("--module", help="module expression")
        sp.add_argument("--variant", choices=variants, help="default full")
        if seed or sweep:
            sp.add_argument("--seed", type=int, default=None)
        if sweep:
            sp.add_argument("--budget", type=int, help="exhaustive sweep budget (default 10^6)")
            sp.add_argument("--samples", type=int, help="sampled sweep size (default 10^4)")
        sp.add_argument("--format", choices=_CHOICES["format"], help="default text")
        sp.add_argument("--output", help="output path (default stdout)")

    sp = sub.add_parser("jt", help="Jordan type at a point")
    common(sp, variants=_JT_VARIANTS)
    sp.add_argument("--hs", type=int, help="homotopy s (default 1)")
    sp.add_argument("--ht", type=int, help="homotopy t (default 1)")
    sp.add_argument("--point", help="comma-separated chart parameter values")
    sp.add_argument("--tuple-file", help="explicit tuple file (matrices row-wise)")

    sp = sub.add_parser("strata", help="tabulate Jordan types over a chart sweep")
    common(sp, sweep=True)
    sp.add_argument("--max-reps", type=int, help="default 4")

    sp = sub.add_parser("minors", help="emit determinantal rank-locus generators")
    common(sp)
    sp.add_argument("--j", type=int, help="default 1")
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("closed", help="verify a closed stratum determinantally")
    common(sp, sweep=True)
    sp.add_argument("--type", required=True, help='Jordan type, e.g. "[3]+[1]"')

    sp = sub.add_parser("semicont", help="semicontinuity along curves")
    common(sp, seed=True)
    sp.add_argument("--curves", type=int, help="number of seeded builtin curves (default 10)")
    sp.add_argument("--curve-file", help="file of param=c0,c1,... lines")

    for name in ("tensor", "dominance"):
        sp = sub.add_parser(name, help=f"{name} of two Jordan types")
        sp.add_argument("a")
        sp.add_argument("b")
        sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("perp", help="perp of a Jordan type")
    sp.add_argument("a")
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("power", help="Jordan type of the j-th power")
    sp.add_argument("a")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("suite", help="run the acceptance/property battery")
    sp.add_argument("--level", default="full", choices=["quick", "full"])
    return ap


def _resolve_field(args):
    if getattr(args, "field", None):
        return parse_field_spec(args.field)
    if getattr(args, "p", None):
        return GF(args.p)
    raise JTCalcError("need --p or --field")


def _resolve_chart(args, field):
    if getattr(args, "chart_file", None):
        with open(args.chart_file) as fh:
            return parse_chart(fh.read())
    name = getattr(args, "chart", None)
    if not name:
        raise JTCalcError("need --chart or --chart-file")
    kwargs = {"p": field.p}
    if args.r is not None:
        kwargs["r"] = args.r
    if args.N is not None:
        kwargs["N"] = args.N
    if args.s_lines is not None:
        kwargs["s"] = args.s_lines
    return builtin_chart(name, **kwargs)


def _resolve_module(args):
    text = getattr(args, "module", None)
    if not text:
        raise JTCalcError("need --module")
    return parse_module_expr(text, loader=load_explicit_file)


def _apply_config(args):
    """Merge the config file into args (a flag given on the command line wins), then defaults."""
    cfg_path = getattr(args, "config", None)
    options = _load_config_file(cfg_path) if cfg_path else {}
    unknown = set(options) - _KNOWN_KEYS
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    renames = {"s": "hs", "t": "ht"}
    for key, (value, line) in options.items():
        attr = renames.get(key, key)
        if getattr(args, attr, None) in (None, ""):
            if attr in _INT_KEYS:
                try:
                    value = int(value)
                except ValueError:
                    raise ParseError(f"config key {key}: {value!r} is not an integer", line=line) from None
            choices = _JT_VARIANTS if attr == "variant" and args.command == "jt" else _CHOICES.get(attr)
            if value not in (choices or (value,)):
                raise ParseError(f"config key {key}: {value!r} is not one of {list(choices)}", line=line)
            setattr(args, attr, value)
    for attr, value in _DEFAULTS.items():
        if attr in vars(args) and getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _jt_of_variant(module, tup, args, field):
    if args.variant == "homotopy":
        return jt_homotopy_at_point(module, tup, field.from_int(args.hs), field.from_int(args.ht))
    return jt_at_point(module, tup, args.variant)


def _cmd_jt(args, out):
    field = _resolve_field(args)
    module = _resolve_module(args)
    if getattr(args, "tuple_file", None):
        # a file over GF(p) is embedded into an extension; any other field is refused
        tup = CommutingTuple.gl(m.embed_into(field) for m in read_tuple_file(args.tuple_file))
        point_desc = args.tuple_file
    else:
        if not getattr(args, "point", None):
            raise JTCalcError("need --point or --tuple-file")
        chart = _resolve_chart(args, field)
        from .strata import _parse_element

        values = [_parse_element(v, field) for v in args.point.split(",")]
        if not chart.satisfies(values):
            raise JTCalcError("point violates the chart constraints")
        tup = chart.tuple_at(values)
        point_desc = args.point
    jt = _jt_of_variant(module, tup, args, field)
    from .jordan import rank_profile

    rp = rank_profile(jt)
    rec = {
        "point": point_desc,
        "variant": args.variant,
        "jordan_type": jt.to_text(),
        "ranks": list(rp.ranks),
        "field": field.descriptor(),
    }
    _emit([rec], args.format, out, "jt")
    return 0


def _require_seed_when_sampled(args, chart, field):
    from .strata import sweep_mode

    if sweep_mode(chart, field, args.budget) == "sampled" and args.seed is None:
        raise JTCalcError("sampled sweeps need an explicit --seed")
    return args.seed if args.seed is not None else 0


def _cmd_strata(args, out):
    field = _resolve_field(args)
    chart = _resolve_chart(args, field)
    module = _resolve_module(args)
    seed = _require_seed_when_sampled(args, chart, field)
    table = tabulate_jt(chart, module, field, args.variant, args.budget, seed,
                        args.samples, max_reps=args.max_reps)
    records = []
    for rec in table.to_jsonl_records():
        rec.update({"chart": table.chart_name, "mode": table.mode, "seed": table.seed,
                    "variant": table.variant, "field": table.field_desc})
        records.append(rec)
    records.append({"zero_points": table.zero_count, "swept": table.swept,
                    "chart": table.chart_name, "mode": table.mode, "seed": table.seed})
    _emit(records, args.format, out, "strata")
    return 0


def _cmd_minors(args, out):
    field = _resolve_field(args)
    chart = _resolve_chart(args, field)
    module = _resolve_module(args)
    gens = rank_locus_minors(chart, module, args.variant, args.j, args.d)
    records = [{"index": i, "generator": str(g)} for i, g in enumerate(gens)]
    records.insert(0, {"count": len(gens), "j": args.j, "d": args.d, "chart": chart.name})
    _emit(records, args.format, out, "minors")
    return 0


def _cmd_closed(args, out):
    field = _resolve_field(args)
    chart = _resolve_chart(args, field)
    module = _resolve_module(args)
    a = parse_jordan_type(args.type, field.p)
    seed = _require_seed_when_sampled(args, chart, field)
    rep = verify_closed_stratum(chart, module, a, field, args.variant,
                                args.budget, seed, args.samples)
    rec = {
        "chart": rep.chart_name,
        "type": rep.type_text,
        "variant": rep.variant,
        "checked": rep.checked,
        "mismatches": rep.mismatches,
        "seed": seed,
        "ok": rep.ok,
    }
    _emit([rec], args.format, out, "closed")
    return 0 if rep.ok else 1


def _cmd_semicont(args, out):
    field = _resolve_field(args)
    chart = _resolve_chart(args, field)
    module = _resolve_module(args)
    curves = []
    if getattr(args, "curve_file", None):
        with open(args.curve_file) as fh:
            coeffs = parse_curve_coeffs(fh.read(), chart)
        curves.append(curve_from_coeffs(chart, field, coeffs, label=args.curve_file))
    else:
        if args.seed is None:
            raise JTCalcError("sampled curves need --seed")
        curves.extend(builtin_curves(chart, args.seed, args.curves))
    records = []
    violations = 0
    for curve in curves:
        rep = semicontinuity_check(curve, module, args.variant)
        if not rep.ok:
            violations += 1
        rec = {
            "curve": rep.curve_label,
            "variant": rep.variant,
            "generic": rep.generic_type,
            "special": rep.special_type,
            "ok": rep.ok,
        }
        if args.seed is not None:
            rec["seed"] = args.seed
        records.append(rec)
    _emit(records, args.format, out, "semicont")
    return 0 if violations == 0 else 1


def _cmd_pair_op(args, out, op):
    a = parse_jordan_type(args.a, args.p)
    b = parse_jordan_type(args.b, args.p)
    if op == "tensor":
        result = jt_tensor(a, b)
        out.write(f"{a.to_text()} (x) {b.to_text()} = {result.to_text()}\n")
    else:
        leq, comparable = dominance_leq_checked(a, b)
        if not comparable:
            out.write(f"{a.to_text()} and {b.to_text()}: incomparable (different dimensions)\n")
        else:
            out.write(f"{a.to_text()} <= {b.to_text()}: {str(leq).lower()}\n")
    return 0


def _cmd_suite(args, out):
    results = run_suite(args.level)
    hard_fail = 0
    for r in results:
        if r.passed:
            status = "PASS"
        elif r.expected_defect:
            status = "FAIL (recorded defect)"
        else:
            status = "FAIL"
        if not r.passed and not r.expected_defect:
            hard_fail += 1
        if r.passed and r.expected_defect:
            status = "XPASS (unexpected; investigate)"
            hard_fail += 1
        out.write(f"{status:<28} {r.name}  [{r.elapsed:.2f}s/{r.limit:.0f}s]  {r.details}\n")
    out.write(f"suite level={args.level}: {len(results)} checks, {hard_fail} hard failures\n")
    return 0 if hard_fail == 0 else 1


def main(argv=None):
    ap = _parser()
    args = ap.parse_args(argv)
    if not args.command:
        ap.print_usage(sys.stderr)
        return 2
    started = time.perf_counter()
    out = sys.stdout
    close = False
    try:
        args = _apply_config(args)
        sys.stderr.write(f"config: {json.dumps(_echo(args), sort_keys=True)}\n")
        if getattr(args, "output", None):
            out = open(args.output, "w")
            close = True
        if args.command == "jt":
            code = _cmd_jt(args, out)
        elif args.command == "strata":
            code = _cmd_strata(args, out)
        elif args.command == "minors":
            code = _cmd_minors(args, out)
        elif args.command == "closed":
            code = _cmd_closed(args, out)
        elif args.command == "semicont":
            code = _cmd_semicont(args, out)
        elif args.command in ("tensor", "dominance"):
            code = _cmd_pair_op(args, out, args.command)
        elif args.command == "perp":
            a = parse_jordan_type(args.a, args.p)
            out.write(f"perp({a.to_text()}) = {jt_perp(a).to_text()}\n")
            code = 0
        elif args.command == "power":
            a = parse_jordan_type(args.a, args.p)
            out.write(f"{a.to_text()}^{args.j} = {jt_power(a, args.j).to_text()}\n")
            code = 0
        elif args.command == "suite":
            code = _cmd_suite(args, out)
        else:
            sys.stderr.write(f"unknown command {args.command}\n")
            code = 2
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        code = 2
    except (JTCalcError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 2
    finally:
        if close:
            out.close()
    sys.stderr.write(f"elapsed: {time.perf_counter() - started:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
