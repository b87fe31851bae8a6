"""The one-pass parser against the parser it replaced.

`reference_parser` keeps the old parser: positioned tokens, a parser
object with `peek`/`next`/`expect`, and a copied coefficient map per
operator.  On every well-formed input here `parse_program` must return a
`Program` equal to the reference's, and on every malformed one it must
raise a `ParseError` with the reference's message, line and column.
"""

import ast
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import reference_parser
from chcprecond import parser
from chcprecond.core import format_program
from chcprecond.parser import ParseError, parse_program

from helpers import CORPUS, gen_multivar_texts, gen_twoloop_texts

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def chain(n: int = 1500) -> str:
    """The single-clause chain of `test_pe.py`: p0 .. p<n-1>, then a goal."""
    lines = [":- initial(p0/1).", "p0(A) :- A >= 0."]
    lines += [f"p{i}(A) :- p{i - 1}(A)." for i in range(1, n)]
    lines.append(f"false :- A >= 5, p{n - 1}(A).")
    return "\n".join(lines) + "\n"


NON_ASCII = (
    "% état: ß, Ω and a dotted İ start names; ǅ is titlecase, so an identifier\n"
    ":- initial(état/2).\n"
    "c1. état(Été, _x) :- Été >= 0, _x =< Été.\n"
    "ǅ1. ǅ(Ω) :- Ω = 2*Été - - _x + ٣, état(Été, _x).\n"
    "c3. ß(İ, Ω) :- İ > Ω, ǅ(Ω).\n"
    "c4. false :- İ + Ω < ١٠, ß(İ, Ω).\n"
)


def outcome(parse, text, initial=None):
    """The program a parser returns, or the ParseError it raises as a tuple."""
    try:
        return parse(text, initial=initial)
    except (ParseError, reference_parser.ParseError) as e:
        return ("ParseError", e.message, e.line, e.col)


def assert_same_program(text, initial=None):
    want = reference_parser.parse_program(text, initial=initial)
    got = parse_program(text, initial=initial)
    assert got == want
    assert format_program(got) == format_program(want)
    assert got.init_args == want.init_args


@pytest.mark.parametrize("name", sorted(f.name for f in CORPUS.glob("*.chc")))
def test_corpus_programs_equal_the_reference(name):
    assert_same_program((CORPUS / name).read_text())


def test_fixture_programs_equal_the_reference():
    texts = gen_multivar_texts() + gen_twoloop_texts()
    assert len(texts) == 28
    for text in texts:
        assert_same_program(text)


def test_generated_programs_equal_the_reference():
    texts = []
    for seed in range(2, 9):
        texts += gen.programs(seed, 20) + gen.programs(seed, 10, loops=2)
    assert len(texts) == 210
    for text in texts:
        assert_same_program(text)


def test_long_chain_equals_the_reference():
    assert_same_program(chain())


def test_non_ascii_identifiers_equal_the_reference():
    assert_same_program(NON_ASCII)
    p = parse_program(NON_ASCII)
    assert [cl.cid for cl in p.clauses] == ["c1", "ǅ1", "c3", "c4"]
    assert [str(a.pred) for a in p.clause_by_id("c3").body] == ["ǅ/1"]


def test_bindings_and_fresh_names_equal_the_reference():
    # repeated and constant arguments, expressions in atoms, fresh names
    # that skip the clause's own V1, and a variable whose occurrences
    # cancel on one side, which does not keep its name from a fresh one
    text = (
        ":- initial(p/3).\n"
        "c1. p(A, A, 0).\n"
        "c2. q(V1 + 1, 2*B - B, C) :- p(V1, B, C), -3 * - C >= B - 2.\n"
        "c3. false :- V1 - V1 + V2 = 0, q(A, 0, 0), q(A, B, - A).\n"
    )
    assert_same_program(text)
    assert_same_program(text, initial="p/3")


MALFORMED = [
    # tokens
    (":- initial(p/1).\nc1. p(A) :- A ! 0.\n", None, "unexpected character"),
    (":- initial(p/1).\nc1. p(A) :- A = . % ok\n  \f\n", None, "unexpected character"),
    # atoms and clauses
    (":- initial(p/1).\nc1. p A).\n", None, "expected '('"),
    (":- initial(p/1).\nc1. p(A :- A = 0.\n", None, "expected ')'"),
    (":- initial(p/1).\nc1. p(A) :- A = 0\nc2. false :- p(A).\n", None, "expected '.'"),
    (":- initial(p/1).\nc1. p(A) :- A = 0, p(A)", None, "expected '.'"),
    (":- initial(p/1).\nc1. (A).\n", None, "clause head expected"),
    (":- initial(p/1).\nc1. p(A).\nc2. false :- false.\n", None, "false in body"),
    # terms and constraints
    (":- initial(p/1).\nc1. p(A) :- A + 1.\n", None, "relation expected"),
    (":- initial(p/1).\nc1. p(A) :- A", None, "relation expected"),
    (":- initial(p/1).\nc1. p(A) :- A = .\n", None, "term expected"),
    (":- initial(p/1).\nc1. p(A) :- A = 3 *", None, "term expected"),
    (":- initial(p/1).\nc1. p(A) :- 2 * A * - B >= 0.\n", None, "nonlinear"),
    # directives
    (":- include(p/1).\n", None, "unknown directive"),
    (":- initial(\n", None, "predicate name expected"),
    (":- initial P/1).\n", None, "expected '('"),
    (":- initial(p 1).\n", None, "expected '/'"),
    (":- initial(p/A).\n", None, "arity expected"),
    (":- initial(p/1.\n", None, "expected ')'"),
    (":- initial(p/1)\nc1. p(A).\n", None, "expected '.'"),
    # the program as a whole
    (":- initial(p/1).\n:- initial(p/1).\nc1. p(A).\n", None, "multiple initial declarations"),
    ("c1. p(A).\nc2. false :- p(A).\n", "p", "bad initial spec"),
    ("c1. p(A).\nc2. false :- p(A).\n", None, "initial predicate undeclared"),
    (":- initial(p/1).\nc1. p(A).\nc1. false :- p(A).\n", None, "duplicate clause id"),
    ("c1. p(A).\nc2. false :- p(A).\n", "q/1", "unused"),
    (":- initial(p/1).\nc1. q(A).\nc2. p(A) :- q(A).\n", None, "no constrained fact"),
]


@pytest.mark.parametrize("text, initial, message", MALFORMED)
def test_malformed_input_raises_as_the_reference(text, initial, message):
    got = outcome(parse_program, text, initial)
    assert got == outcome(reference_parser.parse_program, text, initial)
    assert got[0] == "ParseError" and message in got[1]


def _raise_lines() -> set[int]:
    tree = ast.parse(Path(parser.__file__).read_text())
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}


def test_malformed_table_reaches_every_raise_in_the_parser():
    code_file = parser.__file__
    reached = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != code_file:
            return None

        def lines(frame, event, arg):
            if event == "line":
                reached.add(frame.f_lineno)
            return lines

        return lines

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        for text, initial, _ in MALFORMED:
            outcome(parse_program, text, initial)
    finally:
        sys.settrace(before)
    assert _raise_lines() - reached == set()


def test_mutated_inputs_give_the_reference_outcome():
    # characters, tokens and spans inserted, deleted and repeated in valid
    # programs, so most mutants are malformed somewhere, in every way
    pool = list("()+-*/.,=<>:%_!\n \t\r09AZaz²éÉⅫⒶ\f") + [
        ":-", "=<", ">=", "false", "true", " - - ", "*A", "*3", "initial", "c1. ",
    ]
    texts = [f.read_text() for f in sorted(CORPUS.glob("*.chc"))] + gen_multivar_texts()[:6]
    rng = random.Random(16)
    kinds = set()
    for _ in range(1500):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            draw = rng.random()
            if draw < 0.4:
                text = text[:at] + rng.choice(pool) + text[at:]
            elif draw < 0.8:
                text = text[:at] + text[at + rng.randint(1, 4):]
            else:
                other = rng.randrange(len(text) + 1)
                text = text[:at] + text[min(at, other):max(at, other)] + text[at:]
        initial = rng.choice([None, None, None, "init/2", "p/1", "p"])
        got = outcome(parse_program, text, initial)
        assert got == outcome(reference_parser.parse_program, text, initial), text
        kinds.add(got[1].split()[0] if type(got) is tuple else "program")
    assert len(kinds) >= 10, kinds
