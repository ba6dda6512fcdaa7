"""Self-tests of the benchmark: deterministic inputs, closed-form records
that agree with the exact oracle, failure accounting, and call counts.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types
from collections import Counter

import pytest

import run
import spans
import workloads as wl

run.import_cli()
from linequiv import MultiDigraph, linearize, oracle_invariants  # noqa: E402
from linequiv.invariants import record_to_json  # noqa: E402


def oracle_record(g: wl.Graph) -> dict:
    labels = tuple(f"v{i}" for i in range(g.n))
    graph = MultiDigraph(labels, tuple((labels[s], labels[t]) for s, t in g.edges))
    rec = oracle_invariants(linearize(graph))
    return wl.semantic_record(record_to_json(rec, graph.edge_count, graph.vertex_count))


def file_contents(ops) -> list:
    return [(op.argv, op.files, op.expect) for op in ops]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = file_contents(wl.build_ops(workload, 7))
    assert first == file_contents(wl.build_ops(workload, 7))
    assert first != file_contents(wl.build_ops(workload, 8))


def test_y_graph_closed_form_matches_oracle():
    for a in range(1, 11):
        for b in range(1, 11):
            g = wl.y_graph(a, b)
            assert g.record.as_json() == oracle_record(g), (a, b)
            assert g.record.t == Counter({max(a, b): 1})
            assert g.record.tz == Counter({min(a, b): 1})


def test_equiv_verdicts_match_oracle():
    for L in range(2, 11):
        same, shifted = wl.y_graph(L, L), wl.y_graph(L - 1, L + 1)
        assert (same.n, len(same.edges)) == (shifted.n, len(shifted.edges))
        assert oracle_record(same) != oracle_record(shifted)
        assert oracle_record(wl.y_graph(L, L // 2)) == oracle_record(wl.y_graph(L // 2, L))


def test_other_closed_forms_match_oracle():
    rng = random.Random(0)
    graphs = [wl.spider(arms) for arms in ((3, 1, 2), (4, 2, 2, 1), (5, 5, 5))]
    graphs += [wl.long_in_tree(rng, h) for h in (1, 2, 3, 5, 6)]
    graphs += [wl.random_functional(rng, n, loops=n // 4)
               for n in (1, 3, 6, 9, 12) for _ in range(4)]
    graphs += list(wl.COMPONENTS.values())
    graphs.append(wl.disjoint_mix(rng, 1))
    graphs.append(wl.with_parallel_copies(rng, wl.random_functional(rng, 8, loops=2), 4))
    for g in graphs:
        assert g.record.as_json() == oracle_record(g), g.edges


def _one_op():
    return wl._invariants("y6", wl.y_graph(6, 6), random.Random(0))


def test_wrong_record_and_exception_count_as_failures(monkeypatch, capsys):
    good = _one_op()
    wrong = _one_op()
    wrong.expect = {"record": wl.y_graph(5, 7).record.as_json()}
    crashing = _one_op()
    crashing.argv = ["invariants", "--json", "--crash", crashing.files[0][0]]
    monkeypatch.setattr(wl, "build_ops", lambda workload, seed: [good, wrong, crashing])
    real_import = run.import_cli

    def import_cli():
        cli = real_import()

        def main(argv):
            if "--crash" in argv:
                raise RuntimeError("deliberate")
            return cli.main(argv)
        return types.SimpleNamespace(main=main)

    monkeypatch.setattr(run, "import_cli", import_cli)
    assert run.main(["--workload", "deep_chains", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 3 * run.MIN_PASSES
    assert result["failed"] == 2 * run.MIN_PASSES
    assert result["correct"] is False


def test_op_times_are_scaled_by_the_reference_routine(monkeypatch):
    op = _one_op()
    directory = run.WORK / "selftest-scale"
    try:
        argvs = wl.write_inputs([op], directory)
        cli = run.import_cli()
        monkeypatch.setattr(run, "time_reference", lambda: 4 * run.REFERENCE_S)
        slow = run.run_pass(cli, [op], argvs)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    assert slow.ok == [True]
    assert slow.times[0] == pytest.approx(slow.raw_times[0] / 4)


def test_traced_pass_counts_match_the_seed():
    rng = random.Random(0)
    g = wl.random_functional(rng, 30, loops=2)
    ops = [wl._invariants("y8", wl.y_graph(8, 8), rng),
           wl._equiv("shift_y8", wl.y_graph(8, 8), wl.y_graph(7, 9), False, rng),
           wl._reduce("func30", g, rng), wl._oracle("oracle8", rng, 8),
           wl._fuzz("fuzz", rng, 3)]
    directory = run.WORK / "selftest-trace"
    try:
        argvs = wl.write_inputs(ops, directory)
        cli = run.import_cli()
        plain, traced = run.measure(cli, ops, argvs, 0, traced=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    assert all(all(p.ok) for p in plain + traced)
    counts = spans.calls_per_op(traced[-1].spans, ("contraction.gamma_table",
                                                "contraction.stabilize"))
    assert [counts[i]["contraction.gamma_table"] for i in range(len(ops))] == [2, 4, 0, 1, 3]
    assert [counts[i]["contraction.stabilize"] for i in range(len(ops))] == [2, 4, 0, 1, 3]
    values, deviations = run.per_layer(ops, plain, traced)
    assert deviations == [] and values["trace.seed_count_mismatch_ops"] == 0
    assert values["invariants.full_invariants.calls"] == 1 + 2 + 0 + 1 + 3
    assert values["oracle.normal_rank.calls"] > 0
    assert all(values[f"{m}.{f}.self_s"] >= 0 for m, f, _ in spans.TARGETS)


def test_fails_without_the_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "deep_chains",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
