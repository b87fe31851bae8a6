"""Surface syntax: tokenizing, clause normalization, program validation."""

import pytest

from chcprecond.core import FALSE_PRED
from chcprecond.linarith import Var, equiv_conj, make_conj, make_constraint
from chcprecond.parser import ParseError, parse_program, tokenize

from helpers import corpus_files, load


def k(coeffs, const, rel="<="):
    return make_constraint(coeffs, const, rel)


def test_fig1_file_round_trip():
    p = load("fig1.chc")
    assert [c.cid for c in p.clauses] == ["c1", "c2", "c3", "c4", "c5", "c6"]
    assert p.init_args == (Var("A"), Var("B"))
    assert p.clause_by_id("c6").head is None


def test_repeated_argument_becomes_equality():
    p = parse_program(":- initial(p/2).\nc1. p(A,A).\nc2. false :- p(A,B).\n")
    cl = p.clause_by_id("c1")
    a, b = cl.head.args
    assert a != b
    assert equiv_conj(cl.constr, make_conj([k({a: 1, b: -1}, 0, "=")]))


def test_terms_that_cancel():
    # B - B + A is the plain variable A, so no fresh argument is made; and a
    # zero coefficient leaves its variable out of the constraint
    p = parse_program(":- initial(p/1).\nc1. p(B - B + A).\nc2. false :- p(A).\n")
    cl = p.clause_by_id("c1")
    assert cl.head.args == (Var("A"),)
    assert cl.constr.is_true()
    p = parse_program(":- initial(p/1).\nc1. p(A) :- A = 0*B + 3.\nc2. false :- p(A).\n")
    cl = p.clause_by_id("c1")
    assert cl.constr == make_conj([k({Var("A"): 1}, -3, "=")])


def test_constants_in_atom_positions():
    p = parse_program(":- initial(p/1).\nc1. p(A).\nc2. false :- p(0).\n")
    goal = p.clause_by_id("c2")
    (v,) = goal.body[0].args
    assert equiv_conj(goal.constr, make_conj([k({v: 1}, 0, "=")]))


def test_nonlinear_rejected():
    with pytest.raises(ParseError, match="nonlinear"):
        parse_program(":- initial(p/1).\nc1. p(A).\nc2. false :- A*A >= 0, p(A).\n")


def test_prolog_style_le_operator():
    p = parse_program(":- initial(p/1).\nc1. p(A) :- A =< 7.\nc2. false :- p(A).\n")
    cl = p.clause_by_id("c1")
    assert equiv_conj(cl.constr, make_conj([k({cl.head.args[0]: 1}, -7)]))


def test_missing_initial_declaration():
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("c1. p(A).\nc2. false :- p(A).\n")


def test_initial_override_flag():
    p = parse_program(
        "c1. p(A).\nc2. false :- p(A).\n",
        initial="p/1",
    )
    assert p.is_initial(p.clause_by_id("c1").head.pred)


def test_initial_override_bad_spec():
    with pytest.raises(ParseError, match="bad initial spec"):
        parse_program("c1. p(A).\nc2. false :- p(A).\n", initial="p")


def test_duplicate_clause_ids_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program(":- initial(p/1).\nc1. p(A).\nc1. false :- p(A).\n")


def test_initial_without_fact_rejected():
    with pytest.raises(ParseError, match="no constrained fact"):
        parse_program(
            ":- initial(p/1).\nc1. q(A).\nc2. p(A) :- q(A).\nc3. false :- p(A).\n"
        )


def test_unused_initial_rejected():
    with pytest.raises(ParseError, match="unused"):
        parse_program(":- initial(r/1).\nc1. p(A).\nc2. false :- p(A).\n", initial=None)


def test_false_is_goal_not_predicate():
    p = load("fig1.chc")
    assert all(cl.head_pred() != FALSE_PRED or cl.head is None for cl in p.clauses)


def test_every_corpus_file_parses():
    for name in corpus_files():
        p = load(name)
        assert p.goal_clauses(), name
        assert p.initial_clauses(), name


@pytest.mark.parametrize(
    "text, line, col",
    [
        # a comment line, then a bad character on the next
        (":- initial(p/1).\n% note: p(A) ! q\nc1. p(A) :- A ! 0.\n", 3, 15),
        # mid-line, after tokens and blanks, and after a comment's end
        ("c1. p(A) :- A = 0 @ 1.\n", 1, 19),
        ("c1. p(A). % fine ! here\n  ? \n", 2, 3),
        # `\r` takes a column of its own, and `\r\n` starts a new line
        (":- initial(p/1).\r\nc1. p(A) :-\r A $ 0.\r\n", 2, 16),
        # a digit that is not a decimal one
        ("c1. p(A) :- A = ².\n", 1, 17),
    ],
)
def test_unexpected_character_position(text, line, col):
    with pytest.raises(ParseError, match="unexpected character") as err:
        tokenize(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_token_kinds_and_positions():
    toks = tokenize("_x Abc abc 12\n  =< :- %c\n")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("VAR", "_x", 1, 1),
        ("VAR", "Abc", 1, 4),
        ("IDENT", "abc", 1, 8),
        ("INT", "12", 1, 12),
        ("PUNCT", "=<", 2, 3),
        ("PUNCT", ":-", 2, 6),
        ("EOF", "", 3, 1),
    ]
    # a non-ASCII start is read by `str.isalpha` and `str.isupper`
    assert [t.kind for t in tokenize("Été été a²")][:-1] == ["VAR", "IDENT", "IDENT"]
    # the end of input sits at the `%` of a comment that ends the text
    eof = tokenize("p(A) % note")[-1]
    assert (eof.kind, eof.line, eof.col) == ("EOF", 1, 6)
    # and after the blanks that end it
    assert tokenize("A \t\r")[-1] == ("EOF", "", 1, 5)
    with pytest.raises(ParseError, match=r"line 3, col 19: expected '\.', found 'end of input'"):
        parse_program(":- initial(p/1).\nc1. p(A).\nc2. false :- p(A) % no period")
