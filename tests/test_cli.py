"""Command line behaviour: exit codes, report formats, dumps."""

import json

import pytest

from chcprecond.cli import main

from helpers import CORPUS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return str(CORPUS / name)


def test_text_report(capsys):
    code, out, _ = run(
        capsys, "analyze", path("example_t4.chc"), "--iterations", "1"
    )
    assert code == 0
    assert "precondition: A + B - 3*N = 0, I - N >= 0" in out
    assert "classification: non-trivial" in out
    assert "iterations used: 1 of 1" in out
    assert "c1(c2,c5)  [feasible]" in out
    for label in ("input", "pe", "cs", "te"):
        assert any(line.strip().startswith(label) for line in out.splitlines())


def test_json_report(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        path("example_t4.chc"),
        "--iterations",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["file"].endswith("example_t4.chc")
    assert doc["mode"] == "as-is"
    assert doc["iterations"] == 1
    assert doc["iterations_used"] == 1
    assert doc["early_stop"] is False
    assert doc["timed_out"] is False
    assert doc["classification"] == "non-trivial"
    assert doc["eliminated_traces"] == [{"trace": "c1(c2,c5)", "feasible": True}]
    assert [s["label"] for s in doc["steps"]] == [
        "input", "pe", "cs", "te", "pe", "cs",
    ]
    # one disjunct of two constraints, in the sum-rel-zero convention
    (disjunct,) = doc["precondition"]
    assert len(disjunct) == 2
    eq = next(k for k in disjunct if k["rel"] == "=")
    assert eq["coeffs"] in ({"A": 1, "B": 1, "N": -3}, {"A": -1, "B": -1, "N": 3})
    assert doc["precondition_text"]
    assert doc["final_seconds"] >= 0 and doc["classify_seconds"] >= 0


def test_text_report_times_the_work_after_the_steps(capsys):
    code, out, _ = run(capsys, "analyze", path("counter_loop.chc"), "--iterations", "1")
    assert code == 0
    (line,) = [l for l in out.splitlines() if l.startswith("after the steps:")]
    assert "final " in line and "classify " in line


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.chc")
    assert code == 2
    assert "error:" in err


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.chc"
    f.write_text("c1. p(A).\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "initial predicate undeclared" in err


def test_coverage_error_exit_code(capsys, tmp_path):
    f = tmp_path / "uncovered.chc"
    f.write_text(
        ":- initial(i/1).\nc1. i(A).\nc2. p(A) :- i(A).\nc3. false :- A >= 3.\n"
    )
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "coverage check failed" in err


def test_bad_config_exit_code(capsys):
    code, _, err = run(
        capsys, "analyze", path("fig1.chc"), "--iterations", "-2"
    )
    assert code == 2
    assert "iterations" in err


def test_negative_node_bound_is_a_config_error(capsys):
    code, _, err = run(
        capsys, "analyze", path("fig1.chc"), "--max-cex-nodes", "-5"
    )
    assert code == 2
    assert "error: max_cex_nodes" in err


def test_timeout_exit_code(capsys):
    code, out, _ = run(
        capsys, "analyze", path("fig1.chc"), "--timeout", "1e-9"
    )
    assert code == 3
    assert "(timeout, fell back)" in out
    assert "warning:" in out


def test_initial_override(capsys, tmp_path):
    f = tmp_path / "noinit.chc"
    f.write_text("c1. start(A) :- A >= 0.\nc2. false :- A = 3, start(A).\n")
    code, out, _ = run(
        capsys, "analyze", str(f), "--initial", "start/1", "--iterations", "0"
    )
    assert code == 0
    assert "classification:" in out


def test_dump_pe(capsys):
    code, out, _ = run(capsys, "analyze", path("fig1.chc"), "--dump", "pe")
    assert code == 0
    assert "step 0:" in out
    assert "S + while_1(A,B) <- A =< 0, B = 0" in out
    assert "init_3(A,B) :- A =< 99." in out


def test_dump_invariants(capsys):
    code, out, _ = run(
        capsys, "analyze", path("cs_example.chc"), "--dump", "invariants"
    )
    assert code == 0
    assert "p_1/2: call=$a0 >= 0; ans=$a0 >= 0, $a0 - $a1 =< 0" in out


# the whole `--dump invariants` text of each corpus program
INVARIANT_DUMPS = {
    "already_safe.chc": "\n",
    "branch_split.chc": (
        "init_1/1: call=$a0 = 5; ans=$a0 = 5\n"
        "init_2/1: call=$a0 = 35; ans=$a0 = 35\n"
        "p_1/1: call=$a0 = 5; ans=$a0 = 5\n"
    ),
    "chain_skip.chc": (
        "init_1/1: call=$a0 >= 10; ans=$a0 >= 10\n"
        "init_2/1: call=$a0 =< -10; ans=$a0 =< -10\n"
    ),
    "counter_loop.chc": (
        "init_1/1: call=$a0 = 0; ans=$a0 = 0\n"
        "init_2/1: call=$a0 >= 1; ans=$a0 >= 1\n"
        "loop_1/1: call=$a0 = 0; ans=$a0 = 0\n"
        "loop_2/1: call=$a0 >= 1; ans=$a0 >= 1\n"
    ),
    "cs_example.chc": "p_1/2: call=$a0 >= 0; ans=$a0 >= 0, $a0 - $a1 =< 0\n",
    "example_t4.chc": (
        "init_1/4: call=true; ans=true\n"
        "l_1/4: call=true; ans=true\n"
        "l_2/4: call=$a0 - $a3 =< 0; ans=true\n"
    ),
    "example_t4_cs0.chc": (
        "init_1/4: call=$a0 - $a3 =< -1; ans=$a0 - $a3 =< -1\n"
        "init_2/4: call=$a0 - $a3 >= 0, $a1 + $a2 - 3*$a3 >= 1; "
        "ans=$a0 - $a3 >= 0, $a1 + $a2 - 3*$a3 >= 1\n"
        "init_3/4: call=$a0 - $a3 >= 0, $a1 + $a2 - 3*$a3 =< -1; "
        "ans=$a0 - $a3 >= 0, $a1 + $a2 - 3*$a3 =< -1\n"
        "l_1_1/4: call=$a0 - $a3 =< 0; ans=true\n"
    ),
    "fig1.chc": (
        "if_1/2: call=$a0 =< 0, $a1 = 0; ans=$a0 = 0, $a1 = 0\n"
        "if_2/2: call=$a0 >= 1, 2*$a0 - $a1 = 0; ans=$a0 >= 1, 2*$a0 - $a1 = 0\n"
        "init_1/2: call=$a0 = 100, $a1 = 0; ans=$a0 = 100, $a1 = 0\n"
        "init_2/2: call=$a0 >= 101, 2*$a0 - $a1 = 200; ans=$a0 >= 101, 2*$a0 - $a1 = 200\n"
        "init_3/2: call=$a0 =< 99, 2*$a0 + $a1 = 200; ans=$a0 =< 99, 2*$a0 + $a1 = 200\n"
        "while_1/2: call=$a0 =< 0, $a1 = 0; ans=$a0 = 0, $a1 = 0\n"
        "while_2/2: call=$a0 >= 1, 2*$a0 - $a1 = 0; ans=$a0 >= 1, 2*$a0 - $a1 = 0\n"
    ),
    "no_safe_states.chc": "init_1/1: call=true; ans=true\n",
    "two_inits.chc": "init_1/1: call=$a0 = 0; ans=$a0 = 0\n",
}


def test_invariant_dumps_cover_the_corpus():
    assert sorted(INVARIANT_DUMPS) == sorted(f.name for f in CORPUS.glob("*.chc"))


@pytest.mark.parametrize("name", sorted(INVARIANT_DUMPS))
def test_dump_invariants_full_text(capsys, name):
    code, out, _ = run(capsys, "analyze", path(name), "--dump", "invariants")
    assert code == 0
    assert out == INVARIANT_DUMPS[name]


def test_dump_cs_lists_deletions(capsys):
    code, out, _ = run(capsys, "analyze", path("fig1.chc"), "--dump", "cs")
    assert code == 0
    assert "deleted: c5" in out
    assert "init_3(A,B) :- A =< 99, 2*A + B = 200." in out


def test_dump_trace(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        path("example_t4.chc"),
        "--dump",
        "trace",
        "--iterations",
        "1",
    )
    assert code == 0
    assert out.splitlines() == ["c1(c2,c5)  [feasible]"]


def test_dump_trace_empty(capsys):
    code, out, _ = run(
        capsys, "analyze", path("already_safe.chc"), "--dump", "trace"
    )
    assert code == 0
    assert "no traces eliminated" in out


def test_strip_init_mode_line(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        path("two_inits.chc"),
        "--strip-init",
        "--iterations",
        "1",
    )
    assert code == 0
    assert "mode: strip-init" in out


def test_dump_pe_strip_init(capsys, tmp_path):
    # the goal constrains nothing, so pe propagates nothing into the facts
    f = tmp_path / "p.chc"
    f.write_text(
        ":- initial(init/1).\n"
        "c1. init(A) :- A =< 0.\n"
        "c2. init(A) :- A >= 100.\n"
        "c3. false :- init(A).\n"
    )
    code, out, _ = run(capsys, "analyze", str(f), "--dump", "pe")
    assert code == 0
    assert "c2. init_1(A) :- A =< 0." in out
    code, out, _ = run(capsys, "analyze", str(f), "--dump", "pe", "--strip-init")
    assert code == 0
    # the program printed after the pe steps, one clause per line
    facts = [line for line in out.splitlines() if line.startswith("c") and ". init_1(" in line]
    assert facts == ["c2. init_1(A).", "c3. init_1(A)."]


def test_text_report_says_when_it_stopped_early(capsys):
    code, out, _ = run(capsys, "analyze", path("already_safe.chc"))
    assert code == 0
    assert (
        "iterations used: 0 of 3 (stopped early: no counterexample within the node bound)\n"
        in out
    )


def test_unknown_dump_choice_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path("fig1.chc"), "--dump", "everything"])
    assert exc.value.code == 2
