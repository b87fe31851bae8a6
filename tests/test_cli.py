"""Command line behaviour: exit codes, report formats, dumps."""

import json
import sys

import pytest

import chcprecond.linarith as linarith_mod
import chcprecond.pe as pe_mod
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
    assert doc["stop"] == "iterations"
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


def test_json_report_holds_only_what_the_run_computed(capsys, monkeypatch):
    # every module that imported negate_dnf calls the counting one
    calls = []
    real = linarith_mod.negate_dnf

    def counting(d):
        calls.append(d)
        return real(d)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("chcprecond") and getattr(mod, "negate_dnf", None) is real:
            monkeypatch.setattr(mod, "negate_dnf", counting)
    argv = ["analyze", path("fig1.chc"), "--iterations", "2", "--format"]
    for fmt in ("text", "json"):
        calls.clear()
        code, out, _ = run(capsys, *argv, fmt)
        assert code == 0
        # the one complement is the round's precondition, in either format
        assert len(calls) == 1, fmt
    doc = json.loads(out)
    assert sorted(doc) == [
        "classification", "classify_seconds", "eliminated_traces", "file",
        "final_seconds", "iterations", "iterations_used", "mode", "precondition",
        "precondition_text", "steps", "stop", "timed_out", "warnings",
    ]
    assert [sorted(s) for s in doc["steps"]] == [["label", "seconds"]] * 6
    # (A,B) = (100,0) lies on B = 2*|A-100|, from where the loop exits
    # with A =< 0 and B = 0: the precondition leaves it out
    point = {"A": 100, "B": 0}

    def holds(k):
        value = sum(c * point[v] for v, c in k["coeffs"].items()) + k["const"]
        return value == 0 if k["rel"] == "=" else value <= 0

    assert not any(all(holds(k) for k in conj) for conj in doc["precondition"])


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


def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "bad.chc"
    f.write_bytes(b"\xff\xfe:- initial(p/1).\n")
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


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
    assert "iterations used: 0 of 3 (stop: timeout)\n" in out
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


# the whole `--dump pe` text of each corpus program: the S/R table, a blank
# line, then the specialised program
PE_DUMPS = {
    "already_safe.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "\n"
        "\n"
        "\n"
    ),
    "branch_split.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- B = 5, p_1(B).\n"
        "step 1:\n"
        "  S + p_1(B) <- B = 5\n"
        "  R + c2. p_1(B) :- A - B = 0, B = 5, init_1(A).\n"
        "  R + c3. p_1(B) :- A - B = 30, B = 5, init_2(A).\n"
        "step 2:\n"
        "  S + init_1(A) <- A = 5\n"
        "  S + init_2(A) <- A = 35\n"
        "  R + c4. init_1(A) :- A = 5.\n"
        "  R + c5. init_2(A) :- A = 35.\n"
        "\n"
        ":- initial(init_1/1).\n"
        ":- initial(init_2/1).\n"
        "c1. false :- B = 5, p_1(B).\n"
        "c2. p_1(B) :- A - B = 0, B = 5, init_1(A).\n"
        "c3. p_1(B) :- A - B = 30, B = 5, init_2(A).\n"
        "c4. init_1(A) :- A = 5.\n"
        "c5. init_2(A) :- A = 35.\n"
        "\n"
    ),
    "chain_skip.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- A >= 10, init_1(A).\n"
        "  R + c2. false :- A =< -10, init_2(A).\n"
        "step 1:\n"
        "  S + init_1(A) <- A >= 10\n"
        "  S + init_2(A) <- A =< -10\n"
        "  R + c3. init_1(A) :- A >= 10.\n"
        "  R + c4. init_2(A) :- A =< -10.\n"
        "\n"
        ":- initial(init_1/1).\n"
        ":- initial(init_2/1).\n"
        "c1. false :- A >= 10, init_1(A).\n"
        "c2. false :- A =< -10, init_2(A).\n"
        "c3. init_1(A) :- A >= 10.\n"
        "c4. init_2(A) :- A =< -10.\n"
        "\n"
    ),
    "counter_loop.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- A = 0, loop_1(A).\n"
        "step 1:\n"
        "  S + loop_1(A) <- A = 0\n"
        "  R + c2. loop_1(A) :- A = 0, init_1(A).\n"
        "  R + c3. loop_1(A) :- A = 0, A - U1 = -1, loop_2(U1).\n"
        "step 2:\n"
        "  S + init_1(A) <- A = 0\n"
        "  S + loop_2(A) <- A >= 1\n"
        "  R + c4. init_1(A) :- A = 0.\n"
        "  R + c5. loop_2(A) :- A >= 1, init_2(A).\n"
        "  R + c6. loop_2(A) :- A >= 1, A - U2 = -1, loop_2(U2).\n"
        "step 3:\n"
        "  S + init_2(A) <- A >= 1\n"
        "  R + c7. init_2(A) :- A >= 1.\n"
        "\n"
        ":- initial(init_1/1).\n"
        ":- initial(init_2/1).\n"
        "c1. false :- A = 0, loop_1(A).\n"
        "c2. loop_1(A) :- A = 0, init_1(A).\n"
        "c3. loop_1(A) :- A = 0, A - U1 = -1, loop_2(U1).\n"
        "c4. init_1(A) :- A = 0.\n"
        "c5. loop_2(A) :- A >= 1, init_2(A).\n"
        "c6. loop_2(A) :- A >= 1, A - U2 = -1, loop_2(U2).\n"
        "c7. init_2(A) :- A >= 1.\n"
        "\n"
    ),
    "cs_example.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- A >= 0, p_1(A,B).\n"
        "step 1:\n"
        "  S + p_1(A,B) <- A >= 0\n"
        "  R + c2. p_1(A,B) :- A >= 0, A - C =< 0, p_1(C,B).\n"
        "  R + c3. p_1(A,B) :- A >= 0, A - B = 0.\n"
        "\n"
        ":- initial(p_1/2).\n"
        "c1. false :- A >= 0, p_1(A,B).\n"
        "c2. p_1(A,B) :- A >= 0, A - C =< 0, p_1(C,B).\n"
        "c3. p_1(A,B) :- A >= 0, A - B = 0.\n"
        "\n"
    ),
    "example_t4.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- init_1(I,A,B,N), l_1(I,A,B,N).\n"
        "step 1:\n"
        "  S + init_1(I,A,B,N) <- true\n"
        "  S + l_1(I,A,B,N) <- true\n"
        "  R + c2. init_1(I,A,B,N).\n"
        "  R + c3. l_1(I,A,B,N) :- A - A1 = -1, B - B1 = -2, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "  R + c4. l_1(I,A,B,N) :- A - A1 = -2, B - B1 = -1, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "  R + c5. l_1(I,A,B,N) :- A + B - 3*N >= 1, I - N >= 0.\n"
        "  R + c6. l_1(I,A,B,N) :- A + B - 3*N =< -1, I - N >= 0.\n"
        "step 2:\n"
        "  S + l_2(I,A,B,N) <- I - N =< 0\n"
        "  R + c7. l_2(I,A,B,N) :- A - A1 = -1, B - B1 = -2, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "  R + c8. l_2(I,A,B,N) :- A - A1 = -2, B - B1 = -1, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "  R + c9. l_2(I,A,B,N) :- A + B - 3*N >= 1, I - N = 0.\n"
        "  R + c10. l_2(I,A,B,N) :- A + B - 3*N =< -1, I - N = 0.\n"
        "\n"
        ":- initial(init_1/4).\n"
        "c1. false :- init_1(I,A,B,N), l_1(I,A,B,N).\n"
        "c2. init_1(I,A,B,N).\n"
        "c3. l_1(I,A,B,N) :- A - A1 = -1, B - B1 = -2, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "c4. l_1(I,A,B,N) :- A - A1 = -2, B - B1 = -1, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "c5. l_1(I,A,B,N) :- A + B - 3*N >= 1, I - N >= 0.\n"
        "c6. l_1(I,A,B,N) :- A + B - 3*N =< -1, I - N >= 0.\n"
        "c7. l_2(I,A,B,N) :- A - A1 = -1, B - B1 = -2, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "c8. l_2(I,A,B,N) :- A - A1 = -2, B - B1 = -1, I - I1 = -1, I - N =< -1, l_2(I1,A1,B1,N).\n"
        "c9. l_2(I,A,B,N) :- A + B - 3*N >= 1, I - N = 0.\n"
        "c10. l_2(I,A,B,N) :- A + B - 3*N =< -1, I - N = 0.\n"
        "\n"
    ),
    "example_t4_cs0.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- A - D =< -1, A - E = -1, B - G = -1, C - F = -2, init_1(A,B,C,D), l_1_1(E,G,F,D).\n"
        "  R + c2. false :- A - D =< -1, A - E = -1, B - G = -2, C - F = -1, init_1(A,B,C,D), l_1_1(E,G,F,D).\n"
        "  R + c3. false :- A - D >= 0, B + C - 3*D >= 1, init_2(A,B,C,D).\n"
        "  R + c4. false :- A - D >= 0, B + C - 3*D =< -1, init_3(A,B,C,D).\n"
        "step 1:\n"
        "  S + init_1(A,B,C,D) <- A - D =< -1\n"
        "  S + l_1_1(E,G,F,D) <- D - E >= 0\n"
        "  S + init_2(A,B,C,D) <- A - D >= 0, B + C - 3*D >= 1\n"
        "  S + init_3(A,B,C,D) <- A - D >= 0, B + C - 3*D =< -1\n"
        "  R + c5. init_1(A,B,C,D) :- A - D =< -1.\n"
        "  R + c6. l_1_1(E,G,F,D) :- D - E >= 1, E - U3 = -1, F - U2 = -2, G - U1 = -1, l_1_1(U3,U1,U2,D).\n"
        "  R + c7. l_1_1(E,G,F,D) :- D - E >= 1, E - U3 = -1, F - U2 = -1, G - U1 = -2, l_1_1(U3,U1,U2,D).\n"
        "  R + c8. l_1_1(E,G,F,D) :- D - E = 0, 3*D - F - G =< -1.\n"
        "  R + c9. l_1_1(E,G,F,D) :- 3*D - F - G >= 1, D - E = 0.\n"
        "  R + c10. init_2(A,B,C,D) :- A - D >= 0, B + C - 3*D >= 1.\n"
        "  R + c11. init_3(A,B,C,D) :- A - D >= 0, B + C - 3*D =< -1.\n"
        "\n"
        ":- initial(init_1/4).\n"
        ":- initial(init_2/4).\n"
        ":- initial(init_3/4).\n"
        "c1. false :- A - D =< -1, A - E = -1, B - G = -1, C - F = -2, init_1(A,B,C,D), l_1_1(E,G,F,D).\n"
        "c2. false :- A - D =< -1, A - E = -1, B - G = -2, C - F = -1, init_1(A,B,C,D), l_1_1(E,G,F,D).\n"
        "c3. false :- A - D >= 0, B + C - 3*D >= 1, init_2(A,B,C,D).\n"
        "c4. false :- A - D >= 0, B + C - 3*D =< -1, init_3(A,B,C,D).\n"
        "c5. init_1(A,B,C,D) :- A - D =< -1.\n"
        "c6. l_1_1(E,G,F,D) :- D - E >= 1, E - U3 = -1, F - U2 = -2, G - U1 = -1, l_1_1(U3,U1,U2,D).\n"
        "c7. l_1_1(E,G,F,D) :- D - E >= 1, E - U3 = -1, F - U2 = -1, G - U1 = -2, l_1_1(U3,U1,U2,D).\n"
        "c8. l_1_1(E,G,F,D) :- D - E = 0, 3*D - F - G =< -1.\n"
        "c9. l_1_1(E,G,F,D) :- 3*D - F - G >= 1, D - E = 0.\n"
        "c10. init_2(A,B,C,D) :- A - D >= 0, B + C - 3*D >= 1.\n"
        "c11. init_3(A,B,C,D) :- A - D >= 0, B + C - 3*D =< -1.\n"
        "\n"
    ),
    "fig1.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- A =< 0, B = 0, while_1(A,B).\n"
        "step 1:\n"
        "  S + while_1(A,B) <- A =< 0, B = 0\n"
        "  R + c2. while_1(A,B) :- A =< 0, B = 0, if_1(A,B).\n"
        "  R + c3. while_1(A,B) :- A =< 0, A - A0 = -1, A0 >= 1, B = 0, B - B0 = -2, while_2(A0,B0).\n"
        "step 2:\n"
        "  S + if_1(A,B) <- true\n"
        "  S + while_2(A,B) <- A >= 1\n"
        "  R + c4. if_1(A,B) :- A + A0 = 100, A0 =< 100, init_1(A0,B).\n"
        "  R + c5. if_1(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
        "  R + c6. while_2(A,B) :- A >= 1, if_2(A,B).\n"
        "  R + c7. while_2(A,B) :- A >= 1, A - A0 = -1, B - B0 = -2, while_2(A0,B0).\n"
        "step 3:\n"
        "  S + init_1(A,B) <- A =< 100\n"
        "  S + init_2(A,B) <- A >= 101\n"
        "  S + if_2(A,B) <- A >= 1\n"
        "  R + c8. init_1(A,B) :- A =< 100.\n"
        "  R + c9. init_2(A,B) :- A >= 101.\n"
        "  R + c10. if_2(A,B) :- A >= 1, A + A0 = 100, init_3(A0,B).\n"
        "  R + c11. if_2(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
        "step 4:\n"
        "  S + init_3(A,B) <- A =< 99\n"
        "  R + c12. init_3(A,B) :- A =< 99.\n"
        "\n"
        ":- initial(init_1/2).\n"
        ":- initial(init_2/2).\n"
        ":- initial(init_3/2).\n"
        "c1. false :- A =< 0, B = 0, while_1(A,B).\n"
        "c2. while_1(A,B) :- A =< 0, B = 0, if_1(A,B).\n"
        "c3. while_1(A,B) :- A =< 0, A - A0 = -1, A0 >= 1, B = 0, B - B0 = -2, while_2(A0,B0).\n"
        "c4. if_1(A,B) :- A + A0 = 100, A0 =< 100, init_1(A0,B).\n"
        "c5. if_1(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
        "c6. while_2(A,B) :- A >= 1, if_2(A,B).\n"
        "c7. while_2(A,B) :- A >= 1, A - A0 = -1, B - B0 = -2, while_2(A0,B0).\n"
        "c8. init_1(A,B) :- A =< 100.\n"
        "c9. init_2(A,B) :- A >= 101.\n"
        "c10. if_2(A,B) :- A >= 1, A + A0 = 100, init_3(A0,B).\n"
        "c11. if_2(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
        "c12. init_3(A,B) :- A =< 99.\n"
        "\n"
    ),
    "no_safe_states.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- init_1(A).\n"
        "step 1:\n"
        "  S + init_1(A) <- true\n"
        "  R + c2. init_1(A).\n"
        "\n"
        ":- initial(init_1/1).\n"
        "c1. false :- init_1(A).\n"
        "c2. init_1(A).\n"
        "\n"
    ),
    "two_inits.chc": (
        "step 0:\n"
        "  S + false <- true\n"
        "  R + c1. false :- A = 0, init_1(A).\n"
        "step 1:\n"
        "  S + init_1(A) <- A = 0\n"
        "  R + c2. init_1(A) :- A = 0.\n"
        "\n"
        ":- initial(init_1/1).\n"
        "c1. false :- A = 0, init_1(A).\n"
        "c2. init_1(A) :- A = 0.\n"
        "\n"
    ),
}

# fig1's `--dump pe` with `pe.VERSION_CAP` at 2, where the initial versions
# are re-keyed by property subset while S is still being unfolded
FIG1_CAPPED_PE_DUMP = (
    "step 0:\n"
    "  S + false <- true\n"
    "  R + c1. false :- A =< 0, B = 0, while_1(A,B).\n"
    "step 1:\n"
    "  S + while_1(A,B) <- A =< 0, B = 0\n"
    "  R + c2. while_1(A,B) :- A =< 0, B = 0, if_1(A,B).\n"
    "  R + c3. while_1(A,B) :- A =< 0, A - A0 = -1, A0 >= 1, B = 0, B - B0 = -2, while_2(A0,B0).\n"
    "step 2:\n"
    "  S + if_1(A,B) <- true\n"
    "  S + while_2(A,B) <- A >= 1\n"
    "  R + c4. if_1(A,B) :- A + A0 = 100, A0 =< 100, init_1(A0,B).\n"
    "  R + c5. if_1(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
    "  R + c6. while_2(A,B) :- A >= 1, if_2(A,B).\n"
    "  R + c7. while_2(A,B) :- A >= 1, A - A0 = -1, B - B0 = -2, while_2(A0,B0).\n"
    "step 3:\n"
    "  S + init_1(A,B) <- A =< 100\n"
    "  S + init_2(A,B) <- A >= 101\n"
    "  S + if_2(A,B) <- A >= 1\n"
    "  R + c8. init_1(A,B) :- A =< 100.\n"
    "  R + c9. init_2(A,B) :- A >= 101.\n"
    "  R + c10. if_2(A,B) :- A >= 1, A + A0 = 100, init_1(A0,B).\n"
    "  R + c11. if_2(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
    "\n"
    ":- initial(init_1/2).\n"
    ":- initial(init_2/2).\n"
    "c1. false :- A =< 0, B = 0, while_1(A,B).\n"
    "c2. while_1(A,B) :- A =< 0, B = 0, if_1(A,B).\n"
    "c3. while_1(A,B) :- A =< 0, A - A0 = -1, A0 >= 1, B = 0, B - B0 = -2, while_2(A0,B0).\n"
    "c4. if_1(A,B) :- A + A0 = 100, A0 =< 100, init_1(A0,B).\n"
    "c5. if_1(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
    "c6. while_2(A,B) :- A >= 1, if_2(A,B).\n"
    "c7. while_2(A,B) :- A >= 1, A - A0 = -1, B - B0 = -2, while_2(A0,B0).\n"
    "c8. init_1(A,B) :- A =< 100.\n"
    "c9. init_2(A,B) :- A >= 101.\n"
    "c10. if_2(A,B) :- A >= 1, A + A0 = 100, init_1(A0,B).\n"
    "c11. if_2(A,B) :- A - A0 = -100, A0 >= 101, init_2(A0,B).\n"
    "\n"
)


def test_pe_dumps_cover_the_corpus():
    assert sorted(PE_DUMPS) == sorted(f.name for f in CORPUS.glob("*.chc"))


@pytest.mark.parametrize("name", sorted(PE_DUMPS))
def test_dump_pe_full_text(capsys, name):
    code, out, _ = run(capsys, "analyze", path(name), "--dump", "pe")
    assert code == 0
    assert out == PE_DUMPS[name]


def test_dump_pe_full_text_past_the_version_cap(capsys, monkeypatch):
    monkeypatch.setattr(pe_mod, "VERSION_CAP", 2)
    code, out, err = run(capsys, "analyze", path("fig1.chc"), "--dump", "pe")
    assert code == 0
    assert out == FIG1_CAPPED_PE_DUMP
    assert err == "version cap reached; keying initial versions by property subset\n"


def test_dump_cs_lists_deletions(capsys):
    code, out, _ = run(capsys, "analyze", path("fig1.chc"), "--dump", "cs")
    assert code == 0
    assert "deleted: c5" in out
    assert "init_3(A,B) :- A =< 99, 2*A + B = 200." in out


def test_dump_offers_no_trace(capsys):
    # the eliminated traces are the report's te lines and JSON's eliminated_traces
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path("example_t4.chc"), "--dump", "trace"])
    assert exc.value.code == 2
    assert "trace" in capsys.readouterr().err


def test_reports_list_no_trace_when_none_is_eliminated(capsys):
    code, out, _ = run(capsys, "analyze", path("already_safe.chc"))
    assert code == 0
    te = [line.split() for line in out.splitlines() if line.strip().startswith("te ")]
    # one te step, with its time and no trace after it
    assert len(te) == 1 and len(te[0]) == 2
    code, out, _ = run(capsys, "analyze", path("already_safe.chc"), "--format", "json")
    assert code == 0
    assert json.loads(out)["eliminated_traces"] == []


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
    assert "iterations used: 0 of 3 (stop: no-counterexample)\n" in out


@pytest.mark.parametrize(
    "name, used, stop",
    [("fig1.chc", 1, "unchanged"), ("already_safe.chc", 0, "no-counterexample")],
)
def test_both_report_forms_say_why_the_run_stopped(capsys, name, used, stop):
    code, out, _ = run(capsys, "analyze", path(name), "--iterations", "4")
    assert code == 0
    assert f"iterations used: {used} of 4 (stop: {stop})\n" in out
    code, out, _ = run(capsys, "analyze", path(name), "--iterations", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["iterations_used"], doc["stop"], doc["timed_out"]) == (used, stop, False)


def test_unknown_dump_choice_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path("fig1.chc"), "--dump", "everything"])
    assert exc.value.code == 2
