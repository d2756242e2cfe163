"""jtcalc benchmark: one seeded workload per run, answers checked, metrics printed.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the repository root.  The run imports jtcalc from `src/`, sets
JTCALC_THREADS=1, builds the workload's inputs from the seed, runs one
checked warm-up pass, then repeats timed passes for `--seconds` seconds of
pass time.

--trace 0  prints the end-to-end metrics (tracing off), in calm-core
           seconds: times scaled by the host's speed as bench/probe.py
           samples it during the same interval.
--trace 1  alternates untraced and traced passes and prints the per-layer
           metrics of the traced ones, plus the tracing overhead; the spans
           of the last traced pass go to bench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `--record` rewrites the reference answers of the given
seed in bench/reference.json.  See bench/README.md for the workloads and
the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 7        # extra set-ups, each in a fresh interpreter
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "queries", "loci"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


def _setup(name, seed):
    """Import jtcalc from src/ and build the workload; returns (workload, calm-core seconds)."""
    probe = Probe()
    with probe.running():
        t0 = time.perf_counter()
        import jtcalc

        if Path(jtcalc.__file__).resolve().parent != SRC / "jtcalc":
            raise ImportError(f"jtcalc imported from {jtcalc.__file__}, not from {SRC}")
        import workloads

        wl = workloads.build(name, seed)
        t1 = time.perf_counter()
    return wl, probe.scaled(t0, t1)


def _child_setup(args):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs passes over a workload's answers and checks every result."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference      # digests in construction order, or None
        self.first = None               # digests of the checked warm-up pass
        self.verdicts = None            # its check results: None or what failed
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None, probe=None):
        """Time every answer once, in the seeded order; returns seconds per answer.

        With a tracer, the pass runs with it installed and each answer is a
        root span; checking the answers happens after it is removed.  With a
        probe, the seconds are calm-core seconds (bench/probe.py).
        """
        answers = self.wl.answers
        spans = [None] * len(answers)
        results = [None] * len(answers)
        perf = time.perf_counter
        with tracer.installed() if tracer else contextlib.nullcontext(), \
                probe.running() if probe else contextlib.nullcontext():
            for i in self.wl.order:
                ans = answers[i]
                t0 = perf()
                try:
                    with tracer.root(ans.desc) if tracer else contextlib.nullcontext():
                        res = ans.call()
                except Exception as exc:   # an answer that raises is counted, the pass goes on
                    res = exc
                spans[i] = (t0, perf())
                results[i] = res
        self._check(results)
        return [probe.scaled(t0, t1) if probe else t1 - t0 for t0, t1 in spans]

    def _fail(self, i, msg):
        self.failed += 1
        problem = f"{self.wl.answers[i].desc}: {msg}"
        if len(self.problems) < 20 and problem not in self.problems:
            self.problems.append(problem)

    def _check(self, results):
        first = self.first is None
        digests, verdicts = [], []
        points = 0
        for i, (ans, res) in enumerate(zip(self.wl.answers, results)):
            self.attempted += 1
            if isinstance(res, Exception):
                digests.append(None)
                verdicts.append(f"raised {type(res).__name__}: {res}")
                self._fail(i, verdicts[-1])
                continue
            try:
                digest = _digest(ans.canon(res))
                if first:
                    points += ans.points(res)
                    msg = ans.check(res)
                    if msg is None and self.reference is not None and self.reference[i] != digest:
                        msg = "answer differs from the recorded reference"
                elif digest != self.first[i]:
                    msg = "answer differs from the first pass"
                else:
                    msg = self.verdicts[i]
            except Exception as exc:   # a malformed answer fails its check
                digest, msg = None, f"check raised {type(exc).__name__}: {exc}"
            digests.append(digest)
            verdicts.append(msg)
            if msg is not None:
                self._fail(i, msg)
        if first:
            self.first, self.verdicts = digests, verdicts
            self.points = points


def _load_reference(name, seed, count):
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))
    if ref is not None and len(ref) != count:
        raise ValueError(f"reference for {name} seed {seed} has {len(ref)} answers, workload has {count}")
    return ref


def _record_reference(name, seed, digests):
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc.setdefault(name, {})[str(seed)] = digests
    REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")


def _answer_times(passes):
    """Each answer's time in this run: the median of its timed repeats."""
    return [statistics.median(col) for col in zip(*passes)]


def _end_to_end(runner, passes, setups):
    times = _answer_times(passes)
    wall = sum(times)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "points_per_s": runner.points / wall,
        "answer_p50_ms": statistics.median(times) * 1e3,
        "answer_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None):
    args = _parse(argv)
    os.environ["JTCALC_THREADS"] = "1"
    if not (SRC / "jtcalc" / "__init__.py").is_file():
        print(f"bench: no jtcalc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl, own_setup = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setups = [own_setup]

    import numpy
    import tracer as tracing

    reference = None if args.record else _load_reference(args.workload, args.seed, len(wl.answers))
    runner = Runner(wl, reference)
    runner.run_pass()                      # warm-up, fully checked
    if args.record:
        if runner.failed:
            print("bench: not recording answers that fail their checks:", *runner.problems,
                  sep="\n  ", file=sys.stderr)
            return 1
        _record_reference(args.workload, args.seed, runner.first)

    untraced, traced, layer, slowdowns = [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    # the traced run compares raw pass times, and its set-up is not reported
    probe = None if tracer else Probe()
    setup_repeats = 0 if tracer else SETUP_REPEATS
    spent = 0.0                            # seconds of timed passes so far
    while True:
        t0 = time.perf_counter()
        untraced.append(runner.run_pass(probe=probe))
        if probe is not None:
            slowdowns.append(statistics.fmean(probe.slowdowns))
        if tracer is not None:
            tracer.reset()
            traced.append(runner.run_pass(tracer))
            layer.append(tracer.metrics())
        took = time.perf_counter() - t0
        spent += took
        # set-ups spread over the run, so that a short slow spell sways few of them
        if len(setups) <= setup_repeats:
            setups.append(_child_setup(args))
        if spent + took > args.seconds:   # the next round would overrun
            break
    while len(setups) <= setup_repeats:
        setups.append(_child_setup(args))

    OUT.mkdir(exist_ok=True)
    if tracer is None:
        values = _end_to_end(runner, untraced, setups)
        units = END_TO_END_UNITS
    else:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        values["trace.overhead_frac"] = sum(_answer_times(traced)) / sum(_answer_times(untraced)) - 1
        units = {k: tracing.unit(k) for k in values}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "JTCALC_THREADS": os.environ["JTCALC_THREADS"],
        "answers_per_pass": len(wl.answers),
        "points_per_pass": runner.points,
        "timed_passes": len(untraced),
        "traced_passes": len(traced),
        "setup_samples_s": setups,
        "host_slowdown_per_pass": slowdowns,
        "inputs": wl.sizes,
        "problems": runner.problems,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1) + "\n")

    rows = [(k, v, units[k]) for k, v in values.items()]
    rows.append(("error_rate", runner.failed / runner.attempted, "fraction"))
    for name, value, unit in rows:
        print(f"{args.workload:8s} {name:32s} {value:14.6g} {unit}")
    print("info " + json.dumps(info, separators=(",", ":")))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
