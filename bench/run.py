"""End-to-end and per-module benchmark of the linequiv command line.

    python3 bench/run.py --workload deep_chains --seed 1 --seconds 30 --trace 0

An op is one in-process call of ``linequiv.cli.main(argv)``: it reads the
input files, parses, computes and writes the ``--json`` document.  One
caller runs the workload's fixed op list in a closed loop (each op starts
when the previous one ends), pass after pass, until the next pass would end
after ``--seconds``; every op's output is checked on every pass.  A fixed
reference routine runs between ops, and every time is reported in
reference seconds: scaled by how fast that routine ran next to it, so that
the host's changing speed cancels out (see bench/README.md, Noise).

With ``--trace 0`` the last stdout line holds the end-to-end metrics named
in BENCHMARK.json.  With ``--trace 1`` plain and traced passes alternate and
the last line holds the per-layer metrics; see bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
# About reference_work()'s time on the machine the bounds were set on.  An
# op's reference seconds are its seconds times REFERENCE_S over the time the
# reference routine took next to it.
REFERENCE_S = 0.005
MIN_PASSES = 3
TAIL_OPS_ABOVE = 10

# gamma_table and stabilize calls per op at the seed commit (fuzz: per trial)
SEED_CALLS = {"invariants": 2, "equiv": 4, "reduce": 0, "oracle": 1, "fuzz": 1}


def metric_units() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_cli():
    """Import linequiv.cli from this checkout's src/, afresh."""
    if not (SRC / "linequiv" / "cli.py").is_file():
        raise FileNotFoundError(f"no linequiv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "linequiv" or k.startswith("linequiv.")]:
        del sys.modules[key]
    cli = importlib.import_module("linequiv.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise FileNotFoundError(f"imported linequiv from {cli.__file__}, not {SRC}")
    return cli


# -- host speed ---------------------------------------------------------------


class _Node:
    __slots__ = ("key", "pair")

    def __init__(self, key, pair):
        self.key, self.pair = key, pair


def reference_work() -> int:
    """Fixed pure-Python work that shares no code with linequiv: object and
    list allocation, tuple-keyed dict inserts, a keyed sort, frozensets and
    Fraction sums."""
    total = 0
    for node in [_Node(i, [i, i + 1]) for i in range(4000)]:
        total += node.pair[1] - node.key
    table = {(i % 97, i): i for i in range(1500)}
    for key in sorted(table, key=lambda k: k[1] * 7919 % 1501):
        total += table[key] % 211
    total += len({frozenset(range(i % 13)) for i in range(1000)})
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 3)
    return total + acc.numerator % 5


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def set_up(workload: str, seed: int, directory: Path):
    """Import linequiv, generate the inputs and write them; repeated, with
    the reference routine run between repetitions.  Returns the median set-up
    time scaled by REFERENCE_S over the median reference time."""
    times, references = [], [time_reference()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        cli = import_cli()
        ops = workloads.build_ops(workload, seed)
        argvs = workloads.write_inputs(ops, directory)
        times.append(time.perf_counter() - start)
        references.append(time_reference())
    scale = REFERENCE_S / statistics.median(references)
    return cli, ops, argvs, statistics.median(times) * scale


# -- checks -------------------------------------------------------------------


def check(op: workloads.Op, code, out: str) -> bool:
    """Does the op's exit code and JSON output match how its input was built?"""
    want_code = 1 if op.kind == "equiv" and not op.expect["equivalent"] else 0
    if code != want_code:
        return False
    try:
        doc = json.loads(out)
        if op.kind == "invariants":
            return workloads.record_ok(doc["record"], op.expect["record"])
        if op.kind == "equiv":
            return doc["equivalent"] is op.expect["equivalent"]
        if op.kind == "reduce":
            return (len(doc["vertices"]) == op.expect["vertices"]
                    and len(doc["pairs"]) == op.expect["pairs"]
                    and doc["split_count"] == op.expect["split_count"])
        if op.kind == "oracle":
            combinatorial = workloads.semantic_record(doc["combinatorial"])
            return (doc["pass"] is True
                    and workloads.record_ok(doc["oracle"], combinatorial)
                    and workloads.record_ok(doc["combinatorial"], combinatorial))
        if op.kind == "fuzz":
            return doc["failures"] == 0 and doc["trials"] == op.expect["trials"]
    except (ValueError, KeyError, TypeError):
        return False
    return False


def run_op(main, argv) -> tuple[float, object, str]:
    """Time one call of main(argv); an exception out of main gives code None."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit):
        code = None
    return time.perf_counter() - start, code, out.getvalue()


class Pass(NamedTuple):
    """One pass over the op list: per op, the time in reference seconds, the
    check's verdict and the time in plain seconds; spans when traced."""

    times: list
    ok: list
    spans: list
    raw_times: list


def run_pass(cli, ops, argvs, tracer=None) -> Pass:
    """Every op once, with the reference routine timed before and after each
    op; an op's reference seconds are its seconds scaled by REFERENCE_S over
    the mean of the two reference times around it."""
    times, ok, raw = [], [], []
    before = time_reference()
    for i, (op, argv) in enumerate(zip(ops, argvs)):
        if tracer is not None:
            tracer.op = i
        seconds, code, out = run_op(cli.main, argv)
        after = time_reference()
        times.append(seconds * 2 * REFERENCE_S / (before + after))
        raw.append(seconds)
        ok.append(check(op, code, out))
        before = after
    return Pass(times, ok, tracer.drain() if tracer is not None else None, raw)


# -- measurement --------------------------------------------------------------


def tail(values: list) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_OPS_ABOVE values above it,
    and that percentile."""
    ordered = sorted(values)
    i = max(len(ordered) - TAIL_OPS_ABOVE - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure(cli, ops, argvs, seconds: float, traced: bool):
    """Passes until the next one would end after `seconds`; with `traced`,
    plain and traced passes alternate.  Returns (plain passes, traced passes)."""
    plain, with_spans = [], []
    tracer = spans.Tracer() if traced else None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(cli, ops, argvs))
        if tracer is not None:
            with tracer:
                with_spans.append(run_pass(cli, ops, argvs, tracer))
        rounds = len(plain)
        round_s = time.perf_counter() - round_start
        if rounds >= MIN_PASSES and time.perf_counter() - start + round_s > seconds:
            return plain, with_spans


def op_times(ops, plain, field: str = "times") -> list:
    """Each op's median time over the passes."""
    return [statistics.median(getattr(p, field)[i] for p in plain) for i in range(len(ops))]


def end_to_end(ops, plain, setup_s: float) -> tuple[dict, dict]:
    per_op = op_times(ops, plain)
    op_tail, pct = tail(per_op)
    values = {
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * op_tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of {len(ops)} per-op times, "
                           f"each the median of {len(plain)} passes",
             "wall_s": f"{sum(op_times(ops, plain, 'raw_times')):.4f} plain seconds "
                       f"at this host's speed during the run"}
    return values, notes


def per_layer(ops, plain, traced) -> tuple[dict, list]:
    """Medians over traced passes of the per-pass span totals, the tracing
    overhead, and the ops whose call counts differ from the seed's."""
    totals = [spans.aggregate(p.spans) for p in traced]
    values = {key: statistics.median(t[key] for t in totals) for key in totals[0]}
    values["trace_overhead_frac"] = (statistics.median(sum(p.times) for p in traced)
                                     / statistics.median(sum(p.times) for p in plain) - 1)
    names = ("contraction.gamma_table", "contraction.stabilize")
    counts = spans.calls_per_op(traced[-1].spans, names)
    deviations = []
    for i, op in enumerate(ops):
        want = SEED_CALLS[op.kind] * (op.expect["trials"] if op.kind == "fuzz" else 1)
        got = counts.get(i, dict.fromkeys(names, 0))
        wrong = [f"{name} {got[name]} calls, seed {want}" for name in names if got[name] != want]
        if wrong:
            deviations.append(f"{op.label}: " + ", ".join(wrong))
    values["trace.seed_count_mismatch_ops"] = len(deviations)
    return values, deviations


def scaling_curve(ops, plain, traced) -> list[str]:
    """The deep_chains curve: per Y(L, L), op time and, when traced,
    gamma_table's band_end and time."""
    lines = []
    per_op = op_times(ops, plain)
    for i, op in enumerate(ops):
        if op.label not in {f"y{L}" for L in workloads.CURVE}:
            continue
        line = f"curve L={op.label[1:]} vertices={op.size} op_ref_ms={1e3 * per_op[i]:.2f}"
        gamma = [s for s in traced[-1].spans
                 if s[0] == "contraction.gamma_table" and s[4] == i] if traced else []
        if gamma:
            line += (f" band_end={gamma[0][5]}"
                     f" gamma_table_ms={1e3 * sum(s[2] - s[1] for s in gamma):.2f}")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    e2e_units, layer_units = metric_units()
    directory = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cli, ops, argvs, setup_s = set_up(args.workload, args.seed, directory)
        plain, traced = measure(cli, ops, argvs, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run still uses it

    checks = [ok for p in plain + traced for ok in p.ok]
    failed = checks.count(False)
    print(f"workload={args.workload} seed={args.seed} ops_per_pass={len(ops)} "
          f"plain_passes={len(plain)} traced_passes={len(traced)} "
          f"closed_loop_callers=1")
    print(f"fail_frac={failed / len(checks):.6g} ({failed} of {len(checks)} ops)")
    if args.workload == "deep_chains":
        print("\n".join(scaling_curve(ops, plain, traced)))
    if args.trace:
        values, deviations = per_layer(ops, plain, traced)
        units = layer_units
        for line in deviations:
            print(f"call count differs from seed: {line}")
    else:
        values, notes = end_to_end(ops, plain, setup_s)
        units = e2e_units
        for name, note in notes.items():
            print(f"{name}: {note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
