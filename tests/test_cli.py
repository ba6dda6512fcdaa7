import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from linequiv import cli, contraction, echelon, invariants, oracle, stabilize
from linequiv import relation as graphs
from linequiv.cli import main, random_relation, run_fuzz, trial_seed
from linequiv.parsing import serialize

from conftest import braided, relation, spider

import random
from fractions import Fraction


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.edges"
    path.write_text("v1 v2\nv1 v3\nv2 v3\nv3 v2\n")
    return str(path)


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.edges"
    path.write_text("v1 v1\nv1 v2\nv2 v1\nv2 v2\n")
    return str(path)


@pytest.fixture
def g4_file(tmp_path):
    path = tmp_path / "g4.edges"
    path.write_text(serialize(braided()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_text(capsys, g1_file):
    code, out, _ = run(capsys, "invariants", g1_file)
    assert code == 0
    assert "ztz[1]=1 tz[1]=1 cycles=[1]" in out
    assert "vertex identity: ok" in out


def test_invariants_single_vertex(capsys, tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("vertex v\n")
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    assert "t[0]=1" in out


def test_invariants_braided_record(capsys, g4_file):
    code, out, _ = run(capsys, "invariants", g4_file)
    assert code == 0
    assert "ztz[2]=3 ztz[3]=2 zt[3]=1 tz[2]=1 cycles=[1]" in out


def test_json_output_is_byte_stable(capsys, g4_file):
    code, first, _ = run(capsys, "invariants", g4_file, "--json")
    assert code == 0
    doc = json.loads(first)
    assert doc["record"]["ztz"] == {"2": 3, "3": 2}
    assert doc["record"]["edge_check"] and doc["record"]["vertex_check"]
    assert doc["record"]["cyclotomic"] == [{"d": 1, "multiplicity": 1}]
    assert doc["gamma"]["nonstable"]["3,1"] == 2
    code, second, _ = run(capsys, "invariants", g4_file, "--json")
    assert first == second


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("a b c\n")
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("text, message", [
    ('digraph { "a" + "b" -> c; }', "string concatenation is not supported"),
    ("strict digraph { a -> b; }", "strict graphs are not supported"),
    ("digraph { node; }", "'node' is a keyword; quote it to use it as an id"),
    ("digraph { a -> b; edge; }", "'edge' is a keyword; quote it to use it as an id"),
    ("digraph { a -> subgraph; }", "subgraphs are not supported"),
    ("digraph {\n a -> b; /* note\n}\n", "line 2, column 10: unterminated comment"),
    ('digraph {\n  c0 [label="{a,b}"];\n}\n', "line 2, column 6: attributes are not supported"),
    ("digraph { a->b->c; }", "line 1, column 15: chained edges are not supported"),
])
def test_unsupported_dot_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "g.dot"
    path.write_text(text)
    code, out, err = run(capsys, "reduce", "--json", str(path))
    assert (code, out) == (2, "") and message in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "invariants", str(tmp_path / "nope"))
    assert code == 2
    assert "cannot read" in err and err.endswith(": No such file or directory\n")
    # a path is opened as given: a file named with a trailing slash is no directory
    (tmp_path / "g.edges").write_text("a b\n")
    code, _, err = run(capsys, "invariants", f"{tmp_path / 'g.edges'}/")
    assert code == 2 and err.endswith(": Not a directory\n")


def test_reduce_command(capsys, tmp_path):
    path = tmp_path / "multi.edges"
    path.write_text("a b\na b\nb c\n")
    code, out, _ = run(capsys, "reduce", str(path))
    assert code == 0
    assert "split_count=1" in out
    assert "a b\nb c\n" in out
    code, out, _ = run(capsys, "reduce", str(path), "--json")
    doc = json.loads(out)
    assert doc["parallel_class_sizes"] == [1, 2]
    assert doc["split_count"] == 1


def test_contract_command(capsys, g4_file):
    code, out, _ = run(capsys, "contract", g4_file, "--left", "3", "--right", "1")
    assert code == 0
    assert "classes=2" in out
    assert "{0}" in out
    code, out, _ = run(capsys, "contract", g4_file, "--left", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph {")
    assert '"{1,11}"' in out and "[" not in out


def test_contract_dot_reads_back(capsys, tmp_path):
    source = tmp_path / "acd.edges"
    source.write_text("a c\nb c\nc d\n")
    code, out, _ = run(capsys, "contract", str(source), "--right", "1", "--dot")
    assert (code, out) == (0, 'digraph {\n  "{a,b}" -> c;\n  c -> d;\n}\n')
    quotient = tmp_path / "quotient.dot"
    quotient.write_text(out)
    code, out, err = run(capsys, "reduce", str(quotient), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"vertices": ["{a,b}", "c", "d"],
                               "pairs": [["{a,b}", "c"], ["c", "d"]],
                               "parallel_class_sizes": [1, 1], "split_count": 0}


def test_contract_dot_refuses_a_singleton_label_ending_in_a_backslash(capsys, tmp_path):
    # a singleton class keeps its label, and DOT cannot quote a final '\'
    source = tmp_path / "g.edges"
    source.write_text("a\\ b\n")
    code, out, _ = run(capsys, "contract", str(source))
    assert (code, out.splitlines()[-1]) == (0, "a\\ b")
    code, out, err = run(capsys, "contract", "--dot", str(source))
    assert (code, out, err) == (2, "", "error: label 'a\\\\' cannot be written in DOT output\n")


def test_output_follows_declaration_order(capsys, tmp_path):
    # "11" and "10" sort before "9", and "100" between them: outputs list
    # vertices, classes and pairs by first appearance in the file
    path = tmp_path / "order.edges"
    path.write_text("vertex 11\n10 9\n10 100\n9 2\n100 2\n")
    code, out, _ = run(capsys, "reduce", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == ["11", "10", "9", "100", "2"]
    assert doc["pairs"] == [["10", "9"], ["10", "100"], ["9", "2"], ["100", "2"]]
    code, out, _ = run(capsys, "contract", str(path), "--left", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["partition"] == [["11"], ["10"], ["9", "100"], ["2"]]
    assert doc["vertices"] == ["11", "10", "{9,100}", "2"]
    assert doc["pairs"] == [["10", "{9,100}"], ["{9,100}", "2"]]


def test_class_labels_matter_only_where_they_are_written(capsys, tmp_path):
    # merging a and b makes a class labelled like the vertex "{a,b}": the
    # record never reads labels, a labelled quotient cannot be written
    path = tmp_path / "clash.edges"
    path.write_text("a c\nb c\nc d\nvertex {a,b}\n")
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0 and "vertex identity: ok" in out
    for extra in ([], ["--json"], ["--dot"]):
        code, out, err = run(capsys, "contract", str(path), "--right", "1", *extra)
        assert (code, out, err) == (2, "", "error: duplicate vertex label\n"), extra


@pytest.mark.parametrize("flag", ["--left", "--right"])
def test_contract_negative_count_is_usage_error(capsys, g1_file, flag):
    code, out, err = run(capsys, "contract", g1_file, flag, "-1")
    assert (code, out, err) == (2, "", "error: contraction counts must be nonnegative\n")


def test_contract_huge_counts_stop_at_the_fixpoint(capsys, g4_file):
    # a side stops at its first step that merges nothing, so 10**12 steps a
    # side give, at once, what the stable depth gives
    depth = stabilize(relation(braided()))[2]
    assert depth >= 2
    huge = str(10 ** 12)
    outputs = {}
    for count in (huge, str(depth)):
        start = time.perf_counter()
        for flag in ("--json", "--dot", None):
            argv = ["contract", g4_file, "--left", count, "--right", count]
            code, out, _ = run(capsys, *argv + ([flag] if flag else []))
            assert code == 0
            outputs[count, flag] = out
        assert time.perf_counter() - start < 5
    huge_doc, depth_doc = (json.loads(outputs[c, "--json"]) for c in (huge, str(depth)))
    assert (huge_doc.pop("left"), huge_doc.pop("right")) == (10 ** 12, 10 ** 12)
    assert (depth_doc.pop("left"), depth_doc.pop("right")) == (depth, depth)
    assert huge_doc == depth_doc
    assert huge_doc["vertices"] == ["{" + ",".join(str(i) for i in range(18)) + "}"]
    assert outputs[huge, "--dot"] == outputs[str(depth), "--dot"]
    # the text header names the counts; the rest is the same
    assert (outputs[huge, None].split("\n", 1)[1]
            == outputs[str(depth), None].split("\n", 1)[1])

def test_diagram_command(capsys, g4_file):
    code, out, _ = run(capsys, "diagram", g4_file)
    assert code == 0
    assert "(0,0): 18" in out
    assert "(1,3): 3" in out and "(3,1): 2" in out
    assert "stable value 1 from min(m,n) >= 3" in out
    assert "|B1| = 3 (ztz[2])" in out and "|B1'| = 3 (ztz[2])" in out
    assert "|D3| = 1 (zt[3])" in out and "|C2| = 1 (tz[2])" in out


def test_diagram_max_band(capsys, g1_file):
    code, narrow, _ = run(capsys, "diagram", g1_file)
    code, wide, _ = run(capsys, "diagram", g1_file, "--max-band", "2")
    assert len(wide.splitlines()) > len(narrow.splitlines())


def test_diagram_max_band_reads_only_suitable_points(monkeypatch, capsys, tmp_path):
    # rows walk the at most five suitable points of each antidiagonal, so
    # neither value nor is_suitable is called for every m in 0..s
    path = tmp_path / "tail.edges"
    path.write_text("a b\nb c\nc c\n")
    calls = Counter()
    diagram = contraction.ContractionDiagram
    value, is_suitable = diagram.value, diagram.is_suitable

    def counted_value(self, m, n):
        calls["value"] += 1
        return value(self, m, n)

    def counted_is_suitable(m, n):
        calls["is_suitable"] += 1
        return is_suitable(m, n)

    monkeypatch.setattr(diagram, "value", counted_value)
    monkeypatch.setattr(diagram, "is_suitable", staticmethod(counted_is_suitable))
    code, out, _ = run(capsys, "diagram", str(path), "--max-band", "1000")
    tail = graphs.BinaryRelation(tuple("abc"), frozenset({("a", "b"), ("b", "c"), ("c", "c")}))
    horizon = contraction.gamma_table(tail).horizon
    s_max = 2 * (horizon + 1000) + 2
    assert code == 0 and len(out.splitlines()) == s_max + 1 + 1 + horizon + 1
    assert 0 < calls["value"] <= 5 * (s_max + 1)
    assert calls["is_suitable"] <= 5 * (s_max + 1)


def test_chains_must_agree_on_the_main_diagonal(monkeypatch, capsys, g4_file):
    # a changed count, and a main diagonal cut short, which agrees with the
    # left-first chain's on every entry it has
    chain = contraction._chain

    def bump(same):
        same[1] += 1

    def truncate(same):
        del same[-1]

    for perturb in (bump, truncate):
        def perturbed(r, side):
            (same, one, two), depth, q = chain(r, side)
            if side == 1:  # the right-first chain
                perturb(same)
            return (same, one, two), depth, q

        monkeypatch.setattr(contraction, "_chain", perturbed)
        with pytest.raises(AssertionError, match=r"gamma\(k, k\)"):
            contraction.gamma_table(relation(braided()))
        code, out, err = run(capsys, "invariants", g4_file)
        assert (code, out) == (3, ""), perturb
        assert err.startswith("internal error: AssertionError: ") and "gamma(k, k)" in err


def test_diagram_negative_max_band_is_usage_error(capsys, g1_file):
    code, out, err = run(capsys, "diagram", g1_file, "--max-band", "-9")
    assert code == 2 and out == ""
    assert "max-band" in err


@pytest.mark.parametrize("dot", ["vertex -> x", '"a b" -> c', '"" -> x'])
def test_unwritable_edge_list_label_is_usage_error(capsys, tmp_path, dot):
    path = tmp_path / "g.dot"
    path.write_text(f"digraph {{ {dot}; }}\n")
    for argv in (["reduce"], ["contract", "--left", "1"]):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "edge-list" in err


def test_dot_class_labels_with_quotes_read_back(capsys, tmp_path):
    # a class label ends in '}', never in a backslash, so every one is written
    path = tmp_path / "quote.edges"
    path.write_text('a"b c\nd\\e c\n')
    code, out, err = run(capsys, "contract", "--dot", "--right", "1", str(path))
    assert (code, out, err) == (0, 'digraph {\n  "{a\\"b,d\\e}" -> c;\n}\n', "")
    quotient = tmp_path / "quotient.dot"
    quotient.write_text(out)
    code, out, err = run(capsys, "reduce", str(quotient), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["pairs"] == [['{a"b,d\\e}', "c"]]


def test_main_calls_share_one_parser(capsys, g1_file):
    code, out, _ = run(capsys, "invariants", g1_file)
    assert code == 0 and "record:" in out
    code, out, _ = run(capsys, "fuzz", "--count", "2", "--json")
    assert code == 0 and json.loads(out)["trials"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "reduce", g1_file)
    assert code == 0 and out.startswith("# reduced:")
    assert cli._parser() is cli._parser()


def test_equiv_exit_codes(capsys, g1_file, g2_file, tmp_path):
    relabeled = tmp_path / "relabeled.edges"
    relabeled.write_text("x z\nx y\nz y\ny z\n")
    code, out, _ = run(capsys, "equiv", g1_file, str(relabeled))
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "equiv", g1_file, g2_file)
    assert code == 1
    assert out.strip() == "distinguished-by: gamma[0,0]: 3 != 2"
    code, out, _ = run(capsys, "equiv", g1_file, g2_file, "--json")
    assert code == 1
    assert json.loads(out)["reason"] == "gamma[0,0]: 3 != 2"


def test_equiv_duplicate_edge_reason(capsys, g4_file, tmp_path):
    with open(g4_file) as fh:
        text = fh.read()
    dup = tmp_path / "dup.edges"
    dup.write_text(text + "0 1\n")
    code, out, _ = run(capsys, "equiv", g4_file, str(dup))
    assert code == 1
    assert "edge count: 23 != 24" in out


def test_oracle_command(capsys, g4_file):
    code, out, _ = run(capsys, "oracle", g4_file)
    assert code == 0
    assert out.strip().endswith("PASS")
    code, out, _ = run(capsys, "oracle", g4_file, "--json")
    assert json.loads(out)["pass"] is True


def test_oracle_command_reports_a_disagreement(monkeypatch, capsys, g1_file):
    # a disagreement injected through oracle.compare: its diff lines, FAIL,
    # exit 1
    compare = oracle.compare
    monkeypatch.setattr(oracle, "compare", lambda a, b: compare(a, b) + ["zt[9]: 1 != 0"])
    code, out, err = run(capsys, "oracle", g1_file)
    assert (code, err) == (1, "")
    assert out == ("combinatorial: ztz[1]=1 tz[1]=1 cycles=[1]\n"
                   "oracle:        ztz[1]=1 tz[1]=1 cycles=[1]\n"
                   "diff: zt[9]: 1 != 0\nFAIL\n")
    code, out, _ = run(capsys, "oracle", g1_file, "--json")
    doc = json.loads(out)
    assert (code, doc["diff"], doc["pass"]) == (1, ["zt[9]: 1 != 0"], False)


def test_oracle_matrix_file(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2 1\n1\n0\n0\n1\n")
    code, out, _ = run(capsys, "oracle", str(path), "--matrix")
    assert code == 0
    assert "ztz[1]=1" in out
    assert "comparison skipped" in out


def test_oracle_matrix_with_rational_eigenvalues(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2 2\n2 0\n0 3\n1 0\n0 1\n")  # M = diag(2, 3), N = I
    code, out, _ = run(capsys, "oracle", str(path), "--matrix")
    assert code == 0
    assert "S((X - 3)^1) S((X - 2)^1)" in out


def test_oracle_matrix_json_lists_regular_divisors(capsys, tmp_path):
    # S(X - 2) is not cyclotomic: the record carries its divisors, not d
    path = tmp_path / "pair.txt"
    path.write_text("1 1\n2\n1\n")
    code, out, _ = run(capsys, "oracle", str(path), "--matrix", "--json")
    record = json.loads(out)["record"]
    assert code == 0
    assert record["regular_divisors"] == [{"exponent": 1, "poly": "X - 2"}]
    assert "cyclotomic" not in record and record["cycles"] == []
    assert record["edge_check"] and record["vertex_check"]


def test_oracle_matrix_with_the_rank_sample_on_an_eigenvalue(capsys, tmp_path):
    # M = -2, N = 1: M + 2N = 0, so the normal rank comes from the end of
    # the left nullity sequence, not from the sample
    path = tmp_path / "pair.txt"
    path.write_text("1 1\n-2\n1\n")
    code, out, _ = run(capsys, "oracle", str(path), "--matrix")
    assert code == 0
    assert "oracle record: S((X + 2)^1)\n" in out


@pytest.mark.parametrize("text, record", [
    # 1x1 pair M = 10^40, N = 1: a linear residue, read off without a search
    ("1 1\n1e40\n1\n", "S((X - 1" + "0" * 40 + ")^1)"),
    # companion pair of (X - 10^20)(X - 3), N = I: the root 10^20 is the
    # cofactor of the divisor 3 of the constant 3*10^20
    ("2 2\n0 1\n-300000000000000000000 100000000000000000003\n1 0\n0 1\n",
     "S((X - 100000000000000000000)^1) S((X - 3)^1)"),
])
def test_oracle_matrix_with_large_rational_eigenvalues(capsys, tmp_path, text, record):
    path = tmp_path / "pair.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "oracle", str(path), "--matrix")
    assert code == 0
    assert f"oracle record: {record}\n" in out


def test_oracle_matrix_root_search_limit_is_usage_error(capsys, tmp_path):
    # (X - 1000003)(X - 1000033): both roots are primes above the trial
    # division limit, so neither they nor their cofactors are tried
    path = tmp_path / "pair.txt"
    path.write_text("2 2\n0 1\n-1000036000099 2000036\n1 0\n0 1\n")
    code, out, err = run(capsys, "oracle", str(path), "--matrix")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "trial division up to 1000000" in err


def test_oracle_matrix_unfactorable_is_usage_error(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("2 2\n0 1\n2 0\n1 0\n0 1\n")  # M = [[0,1],[2,0]], N = I: X^2 - 2
    code, out, err = run(capsys, "oracle", str(path), "--matrix")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err



@pytest.mark.parametrize("error, code, prefix", [
    (AssertionError, 3, "internal error: AssertionError: "),
    (oracle.OracleFactorError, 2, "error: "),
], ids=["AssertionError", "OracleFactorError"])
def test_oracle_errors_exit_by_their_base_class(monkeypatch, capsys, g4_file, error, code,
                                                prefix):
    # a failed self-check in the oracle is an AssertionError, and main never
    # names OracleFactorError: it is caught as a ValueError
    def fail(p):
        raise error("seen in the test")

    monkeypatch.setattr(oracle, "oracle_invariants", fail)
    for argv in (["oracle", g4_file], ["fuzz", "--count", "1"]):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err == prefix + "seen in the test\n"


def test_closed_output_pipe_exits_cleanly(monkeypatch, tmp_path):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = tmp_path / "path.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(3000)))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["reduce", str(path)]) == 141


def test_each_stage_runs_once_per_graph(monkeypatch, capsys, g1_file, g4_file):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the left-first chain is the stabilizing run: its fixpoint is the
    # stable relation
    chain = contraction._chain

    def counted_chain(r, side):
        if side == 0:
            calls["stabilizing chain"] += 1
        return chain(r, side)

    monkeypatch.setattr(contraction, "_chain", counted_chain)
    gamma = counted("gamma_table", contraction.gamma_table)
    for module in (contraction, invariants, cli):
        monkeypatch.setattr(module, "gamma_table", gamma)
    assert run(capsys, "invariants", g4_file, "--json")[0] == 0
    assert calls == {"stabilizing chain": 1, "gamma_table": 1}
    calls.clear()
    assert run(capsys, "equiv", g1_file, g4_file)[0] == 1
    assert calls == {"stabilizing chain": 2, "gamma_table": 2}



def test_record_path_builds_no_labelled_intermediates(monkeypatch, capsys, g1_file, g4_file):
    # labels are checked once, by the parser, and the contraction route
    # works on vertex ids: no Partition, no quotient, no validating
    # constructor of a graph type
    calls = Counter()

    class CountedPartition(graphs.Partition):
        def __new__(cls, *args, **kwargs):
            calls["Partition"] += 1
            return super().__new__(cls)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the label side lives in relation.py, and contraction.py imports
    # Partition from there: patch every name it is reached by
    for module in (graphs, contraction):
        monkeypatch.setattr(module, "Partition", CountedPartition)
    monkeypatch.setattr(graphs, "quotient", counted("quotient", graphs.quotient))
    monkeypatch.setattr(cli, "parse_graph", counted("parse_graph", cli.parse_graph))
    monkeypatch.setattr(graphs._Graph, "__init__",
                        counted("validating constructor", graphs._Graph.__init__))
    for argv, code, inputs in ((["invariants", g4_file, "--json"], 0, 1),
                               (["equiv", g1_file, g4_file], 1, 2)):
        assert run(capsys, *argv)[0] == code
        assert calls == {"parse_graph": inputs}
        calls.clear()
    # the counters do see the label-level paths
    run(capsys, "contract", g4_file, "--left", "1")
    assert calls["Partition"] > 0
    graphs.BinaryRelation(("a",), ())
    assert calls["validating constructor"] == 1


@pytest.mark.parametrize("argv, count", [(["oracle", "g4"], 1), (["fuzz", "--count", "3"], 3),
                                         (["oracle", "pair", "--matrix"], 1)],
                         ids=["oracle-g4", "fuzz-3", "oracle-matrix"])
def test_oracle_eliminates_once_per_pair(monkeypatch, capsys, tmp_path, g4_file, argv, count):
    # the rows of [M N] are ranked once per pair, and the input rows that
    # are independent of the rows before them are the row basis; the normal
    # rank's one sample of M + c*N and every block of the left nullity
    # sequence that certifies it read that basis, not the e rows.  A graph
    # pair is a unit-row pair, so the union-find kernel ranks these from
    # the rows' ends, and its only eliminations over Q are the sample and
    # one per lifted root of unity from d = 2 on: M - N, the lift at d = 1,
    # is ranked by the kernel as well.  A graph pair's integer rows come
    # from its edge ids.  A --matrix pair with other entries runs them all
    # over Q.  Each pair's shape is read once: one `_unit_rows`, one
    # `_shape`, which writes a unit-row pair's ends, and no `_transpose` or
    # `_columns` on a unit-row pair; any other pair transposes once.
    pair_file = tmp_path / "pair.txt"
    # M = [[2, 0], [0, 1], [2, 1]], N = [[1, 0], [0, 1], [1, 1]]: row 3 is
    # the sum of rows 1 and 2
    pair_file.write_text("3 2\n2 0\n0 1\n2 1\n1 0\n0 1\n1 1\n")
    pairs = []  # (pair, sample rows, Q eliminations, kernel calls, lifts, shape reads)

    class Recorded(echelon.Echelon):
        def __init__(self, modulus=0):
            super().__init__(modulus)
            self.added, self.grew = [], []
            pairs[-1][2].append(self)

        def add(self, row):
            if row:
                self.added.append(dict(row))
            grew = super().add(row)
            self.grew.append(grew)
            return grew

    analyze, pencil, lift = oracle.analyze, oracle._pencil_rows, oracle._lift
    forest_rows, forest_ranks = oracle.forest_rows, oracle.forest_ranks
    scans = []
    monkeypatch.setattr(oracle, "analyze",
                        lambda p: pairs.append((p, [], [], [], [], Counter())) or analyze(p))
    for name in ("_unit_rows", "_shape", "_transpose", "_columns"):
        read = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args, name=name, read=read:
                            pairs[-1][5].update([name]) or read(*args))
    monkeypatch.setattr(oracle, "_pencil_rows",
                        lambda rows, c: (c > 0 and pairs[-1][1].append(list(rows)))
                        or pencil(rows, c))
    monkeypatch.setattr(oracle, "_lift", lambda rows, d: pairs[-1][4].append(d) or lift(rows, d))
    monkeypatch.setattr(oracle, "forest_rows", lambda ends, width, shift: pairs[-1][3].append(
        (list(ends), shift)) or forest_rows(ends, width, shift))
    monkeypatch.setattr(oracle, "forest_ranks", lambda ends, width, *flags: pairs[-1][3].append(
        (list(ends), flags)) or forest_ranks(ends, width, *flags))
    for module in (oracle, echelon):
        monkeypatch.setattr(module, "Echelon", Recorded)
    # the package's `linearize` name is the function, so find the module
    linearize_module = sys.modules["linequiv.linearize"]
    integer_row = linearize_module.integer_row
    monkeypatch.setattr(linearize_module, "integer_row",
                        lambda m, n: scans.append(m) or integer_row(m, n))
    files = {"g4": g4_file, "pair": str(pair_file)}
    assert run(capsys, *[files.get(arg, arg) for arg in argv])[0] == 0
    monkeypatch.undo()
    assert len(pairs) == count
    graph = "--matrix" not in argv
    assert (scans == []) == graph
    for p, samples, eliminations, kernel, lifts, reads in pairs:
        v = p.vertex_dim
        stacked = [row for pair in p.rows for row in pair if row]
        block = [{**m, **{v + j: x for j, x in n.items()}} for m, n in p.rows]
        assert block and stacked not in [el.added for el in eliminations], p
        unit = all(list(row.values()) in ([], [1]) for pair in p.rows for row in pair)
        assert unit == graph, p
        shape_reads = [reads[name] for name in ("_unit_rows", "_shape", "_transpose")]
        assert shape_reads == [1, 1, 0 if unit else 1], p
        # `_transpose` reads `_columns` twice; a lifted local type twice more
        assert (reads["_columns"] == 0) if unit else (reads["_columns"] >= 2), p
        if unit:
            assert block not in [el.added for el in eliminations], p
            ends = [(min(m, default=None), min(n, default=None)) for m, n in p.rows]
            # one row basis, [M N] as a graph: column block 1 holds N
            assert [call for call in kernel if call[1] == 1] == [(ends, 1)], p
            indices = forest_rows(ends, v, 1)
            # over Q only the sample and the lifts
            assert len([el for el in eliminations if not el.modulus]) == 1 + len(lifts), p
        else:
            assert kernel == [], p
            raw = [el for el in eliminations if el.added == [row for row in block if row]]
            assert len(raw) == 1, p
            indices = [i for i, grew in enumerate(raw[0].grew) if grew]
        basis = [p.rows[i] for i in indices]
        rank = len(basis)
        assert rank == oracle.rank_of_rows(block)
        assert samples == [basis], p
        # the left nullity sequence reads the basis: in the kernel, untruncated
        # and ungrounded, and over Q, block k is the basis shifted by (k - 1)*v
        certified = oracle.normal_rank(p) < p.edge_dim
        if unit:
            left = [call[0] for call in kernel if call[1] == (False, False)]
            assert left == [[ends[i] for i in indices]] * certified, p
            continue
        basis_rows = [block[i] for i in indices]
        left = [el.added for el in eliminations
                if el is not raw[0] and el.added[:rank] == basis_rows]
        assert len(left) == certified, p
        for added in left:
            blocks = len(added) // rank
            assert added == [{c + k * v: x for c, x in row.items()}
                             for k in range(blocks) for row in basis_rows], p


@pytest.mark.parametrize("argv", [["oracle", "g4"], ["fuzz", "--count", "3"],
                                  ["oracle", "two-cycle"], ["oracle", "pair", "--matrix"]],
                         ids=["oracle-g4", "fuzz-3", "oracle-two-cycle", "oracle-matrix"])
def test_cyclotomic_scan_screens_from_d_2(monkeypatch, capsys, tmp_path, g4_file, argv):
    # at d = 1 the lift is M - N itself, as large as the screen's
    # elimination, so its rank runs unscreened.  On a unit-row pair M - N
    # is a signed incidence matrix, totally unimodular, so the union-find
    # kernel ranks it over F_2, a row per basis row (m, n) as the edge
    # between its two ends, `_shape`'s (a loop's ends are equal), and d = 1
    # is never lifted; any other pair lifts it over Q
    two_cycle = tmp_path / "two-cycle.edges"
    two_cycle.write_text("a b\nb a\n")
    pair_file = tmp_path / "pair.txt"
    # M = [[2, 0], [0, 1], [2, 1]], N = [[1, 0], [0, 1], [1, 1]]: eigenvalues
    # of M + X*N at -1 (d = 1) and at -2
    pair_file.write_text("3 2\n2 0\n0 1\n2 1\n1 0\n0 1\n1 1\n")
    pairs = []  # (pair, screened d, lifted d, the ends of M - N the kernel ranks)

    analyze, screen, lift = oracle.analyze, oracle._screen_clears, oracle._lift
    forest_rows = oracle.forest_rows
    monkeypatch.setattr(oracle, "analyze", lambda p: pairs.append((p, [], [], [])) or analyze(p))
    monkeypatch.setattr(oracle, "_screen_clears",
                        lambda rows, rank, d: pairs[-1][1].append(d) or screen(rows, rank, d))
    monkeypatch.setattr(oracle, "_lift", lambda rows, d: pairs[-1][2].append(d) or lift(rows, d))
    monkeypatch.setattr(oracle, "forest_rows", lambda ends, width, shift: (
        shift == 0 and pairs[-1][3].append(list(ends))) or forest_rows(ends, width, shift))
    files = {"g4": g4_file, "two-cycle": str(two_cycle), "pair": str(pair_file)}
    assert run(capsys, *[files.get(arg, arg) for arg in argv])[0] == 0
    monkeypatch.undo()
    graph = "--matrix" not in argv
    scanned = loops = 0
    for p, screened, lifted, differences in pairs:
        assert 1 not in screened, p
        assert oracle._unit_rows(p.rows) == graph, p
        if not graph:
            assert differences == [] and 1 in lifted, p
            scanned += 1
            continue
        # d = 1 is scanned when the pair has a cycle, and then the kernel
        # ranks M - N on the basis rows' ends
        assert 1 not in lifted, p
        cycle = bool(analyze(p).cyclotomic_blocks)
        shape = oracle._shape(p)
        indices = oracle._row_basis(shape, p.vertex_dim)
        ends = [shape[0][i] for i in indices]
        assert differences == [ends] * cycle, p
        if cycle:
            basis = [p.rows[i] for i in indices]
            assert (len(forest_rows(ends, p.vertex_dim, 0))
                    == oracle.rank_of_rows(oracle._lift(basis, 1))), p
            scanned += 1
            loops += any(a == b for a, b in ends)
    assert scanned > 0
    # a loop's ends are equal, a zero row of M - N, where [M N]'s is not
    assert loops > 0 or "fuzz" not in argv
    if "two-cycle" in argv:  # X^2 - 1 puts d = 2 in the scan, behind the screen
        assert [(screened, lifted) for _, screened, lifted, _ in pairs] == [([2], [2])]


def test_dot_format_flag(capsys, tmp_path):
    path = tmp_path / "g.dot"
    path.write_text("digraph { a -> b; b -> c; }\n")
    code, out, _ = run(capsys, "invariants", str(path), "--format", "dot")
    assert code == 0
    assert "t[2]=1" in out  # a 3-vertex path


def test_inputs_with_a_byte_order_mark(capsys, tmp_path):
    # a UTF-8 byte-order mark is not part of the first label or token
    edges = tmp_path / "bom.edges"
    edges.write_text("v1 v2\nv2 v1\n", encoding="utf-8-sig")
    code, out, _ = run(capsys, "reduce", str(edges), "--json")
    assert code == 0 and json.loads(out)["vertices"] == ["v1", "v2"]
    code, out, _ = run(capsys, "invariants", str(edges))
    assert code == 0 and "cycles=[2]" in out
    dot = tmp_path / "bom.dot"
    dot.write_text("digraph { a -> b; b -> c; }\n", encoding="utf-8-sig")
    code, out, _ = run(capsys, "invariants", str(dot))
    assert code == 0 and "t[2]=1" in out
    pair = tmp_path / "bom.txt"
    pair.write_text("2 1\n1\n0\n0\n1\n", encoding="utf-8-sig")
    code, out, _ = run(capsys, "oracle", str(pair), "--matrix")
    assert code == 0 and "ztz[1]=1" in out


def test_fuzz_runs_clean(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "1", "--count", "10",
                       "--vertices", "4")
    assert code == 0
    assert "trials=10 failures=0" in out


def test_fuzz_zero_vertices(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "5", "--vertices", "0")
    assert code == 0
    assert "failures=0" in out


def test_fuzz_count_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "fuzz", "--count", "0")
    assert code == 2
    assert "count" in err


def test_fuzz_bad_probability(capsys):
    code, _, err = run(capsys, "fuzz", "--edge-prob", "7/5")
    assert code == 2
    assert "probability" in err


@pytest.mark.parametrize("argv, message", [
    (["--edge-prob", "abc"], "cannot parse probability 'abc'"),
    (["--vertices", "-1"], "--vertices must be nonnegative"),
], ids=["edge-prob", "vertices"])
def test_fuzz_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "fuzz", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fuzz_seed_beyond_64_bits_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", "--seed", str(2**64)])
    assert exit_info.value.code == 2
    assert "seed must be a 64-bit unsigned integer" in capsys.readouterr().err


def test_fuzz_reports_the_first_failing_trial(monkeypatch, capsys):
    # trial 2 of 4 disagrees; the report names its child seed and diff
    compare, trials = oracle.compare, []

    def disagree_on_trial_two(combinatorial, from_oracle):
        trials.append(None)
        diffs = compare(combinatorial, from_oracle)
        return diffs + ["zt[9]: 1 != 0"] if len(trials) == 3 else diffs

    monkeypatch.setattr(oracle, "compare", disagree_on_trial_two)
    code, out, _ = run(capsys, "fuzz", "--seed", "5", "--count", "4", "--json")
    doc = json.loads(out)
    assert code == 1
    assert (doc["failures"], doc["first_failing_seed"]) == (1, trial_seed(5, 2))
    assert doc["first_failure_diff"] == ["zt[9]: 1 != 0"]
    trials.clear()
    code, out, _ = run(capsys, "fuzz", "--seed", "5", "--count", "4")
    assert code == 1
    assert out == (f"trials=4 failures=1\nfirst failing seed: {trial_seed(5, 2)}\n"
                   "diff: zt[9]: 1 != 0\n")


def test_fuzz_determinism_and_seed_reproduction():
    assert run_fuzz(9, 20, 4, Fraction(1, 2)) == run_fuzz(9, 20, 4, Fraction(1, 2))
    # trial t of seed s is trial 0 of the reported child seed
    child = trial_seed(9, 7)
    a = random_relation(random.Random(child), 4, Fraction(1, 2))
    b = random_relation(random.Random(trial_seed(child, 0)), 4, Fraction(1, 2))
    assert a == b


def test_random_relation_draws_match_the_fraction_formula():
    # the integer test u*q < p*2^53 against the comparison it replaced,
    # u/2^53 < p/q as Fractions, on the same RNG calls
    def reference(rng, vertices, edge_prob):
        labels = tuple(f"v{i}" for i in range(vertices))
        return graphs.BinaryRelation(labels, frozenset(
            (a, b) for a in labels for b in labels
            if Fraction(rng.getrandbits(53), 2**53) < edge_prob))

    for prob in (Fraction(0), Fraction(1, 3), Fraction(3, 10), Fraction(1)):
        for seed in range(300):
            vertices = seed % 7
            a, b = random.Random(seed), random.Random(seed)
            assert random_relation(a, vertices, prob) == reference(b, vertices, prob)
            assert a.getstate() == b.getstate()


def test_fuzz_json(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "3", "--count", "4", "--json")
    doc = json.loads(out)
    assert doc["trials"] == 4 and doc["failures"] == 0
    assert doc["first_failing_seed"] is None


def _plain_relation(r) -> dict:
    return {"vertices": r.vertices, "pairs": r.sorted_pairs()}


def _plain_gamma(d) -> dict:
    return {"stable_value": d.stable_value, "horizon": d.horizon,
            "nonstable": {f"{m},{n}": v for (m, n), v in d.nonstable_points().items()}}


def _json_outputs(monkeypatch, capsys, argvs) -> list:
    """(stdout, document) per argv run with --json: the stdout of the run as
    it is, and the document a second run emits with the relation and gamma
    parts built as plain tuples and dicts, in the shape json.dumps takes."""
    outputs = [run(capsys, *argv, "--json")[1] for argv in argvs]
    docs = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_relation_json", _plain_relation)
    monkeypatch.setattr(cli, "_gamma_json", _plain_gamma)
    monkeypatch.setattr(cli, "_emit_json", lambda doc: docs.append(doc) or emit(doc))
    for argv in argvs:
        run(capsys, *argv, "--json")
    monkeypatch.undo()
    assert len(docs) == len(argvs)
    return list(zip(outputs, docs))


def test_json_text_matches_json_dumps(monkeypatch, capsys, tmp_path, g1_file, g2_file,
                                      g4_file):
    pair = Path(__file__).resolve().parent.parent / "demos" / "data" / "pair_ztz1.txt"
    odd = tmp_path / "odd.edges"
    # non-ASCII, a quote, a backslash and control characters in labels, and
    # an isolated vertex
    odd.write_text('caf\u00e9 "q"\nb\\s \u2603\n\u00e9\x01\x7f x\nvertex lone\n')
    multi = tmp_path / "multi.edges"
    multi.write_text("a b\na b\nb a\nb a\nb a\na a\nc a\n")
    isolated = tmp_path / "isolated.edges"
    isolated.write_text("vertex b\nvertex a\n")
    # horizon 14, so keys such as "9,9", "10,8" and "1,0" interleave
    y14 = tmp_path / "y14.edges"
    y14.write_text(serialize(spider((14, 14))))
    rng = random.Random(2000)
    labels = [f"u{i}" for i in rng.sample(range(2000), 2000)]
    functional = tmp_path / "functional.edges"
    functional.write_text("".join(f"{v} {rng.choice(labels)}\n" for v in labels))
    graphs_in = [g1_file, g2_file, g4_file, str(odd), str(isolated), str(y14), str(functional)]
    argvs = [[command, path] for path in graphs_in
             for command in ("reduce", "contract", "diagram", "invariants", "oracle")
             if command != "oracle" or path != str(functional)]
    argvs += [["contract", g4_file, "--left", "2", "--right", "1"],
              ["contract", str(odd), "--left", "1"],
              ["contract", str(functional), "--left", "2", "--right", "3"],
              ["oracle", str(pair), "--matrix"], ["equiv", g1_file, g2_file],
              ["equiv", g4_file, g4_file], ["fuzz", "--count", "2"],
              ["fuzz", "--count", "3", "--edge-prob", "1"], ["reduce", str(multi)]]
    outputs = _json_outputs(monkeypatch, capsys, argvs)
    for out, doc in outputs:
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", doc
    docs = [doc for _, doc in outputs]
    docs += [
        {}, [], {"a": [], "b": {}, "c": [[]], "d": [{}]},
        ["", "\x00\x1f\x7f", "\"\\/", "\u00e9\u2603\U0001f600", "\ud800"],
        [["a", "b"], ["\u00e9", "\n"]], [["a", "b"], ["c"]], [["a", 1]], [("a", "b")],
        {"z": None, "y": True, "x": False, "w": -12, "v": 10**30, "\u00e9": [1, [2, [3]]]},
        [True, False, None, 0, "s", ["t", "u"]],
        [0, 1, -1, 7, 10**30, -10**30], (3, -4), [True, False], [1, True, 0, False],
        [False, 2], [1, None], [1, "a"], [1, [2]], [[1, 2], [3, 4]],
        (("a", "b"), ("c", "d")), [["a", "b"], ("c", "d")], [("a", "b"), ["c", "d"]],
        [("a", "b"), ("c",)], [("a", 1)], [("a", "b", "c")],
        {"1,0": 3, "0,0": 4, "10,8": -2, "2,0": 10**30}, {"n": {"b": 0, "a": 1}},
        {"a": True}, {"a": True, "b": False}, {"a": 1, "b": True}, {"a": False, "b": 0},
        {"e": {}}, {"a": 1, "b": None}, {"a": 1, "b": "x"}, {"a": 1, "b": [2]},
        {"a": 1, "b": {"c": 2}}, [{"a": 1}, {}, {"b": True}],
    ]
    for doc in docs:
        assert cli.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True), doc
    # reduce hands its pairs and parallel class sizes over as tuples
    reduced = outputs[-1][1]
    assert type(reduced["pairs"]) is tuple and type(reduced["parallel_class_sizes"]) is tuple
    assert json.loads(cli.json_text(reduced))["parallel_class_sizes"] == [1, 1, 2, 3]
    # each of these inputs reaches the case it is there for
    by_argv = {tuple(argv): json.loads(out) for argv, (out, _) in zip(argvs, outputs)}
    assert by_argv[("reduce", str(isolated))]["pairs"] == []
    assert by_argv[("contract", str(isolated))]["pairs"] == []
    nonstable = by_argv[("diagram", str(y14))]["nonstable"]
    assert {"9,9", "10,8", "1,0"} <= set(nonstable)
    assert len(by_argv[("reduce", str(functional))]["vertices"]) == 2000


@pytest.mark.parametrize("doc", [1.5, {1: 2}, {"a": {3}}, [Fraction(1, 2)], b"x"])
def test_json_text_rejects_other_values(doc):
    with pytest.raises(TypeError):
        cli.json_text(doc)
