"""The parser as it was before it read token strings in one pass, kept as a
reference for the tests.

It tokenizes the whole text into positioned `Token`s, then parses with
`peek`/`next`/`expect` over them, and builds every term with `_lin`, which
copies a coefficient map per operator.  `tests/test_parser_reference.py`
checks that `chcprecond.parser.parse_program` returns an equal `Program`
and raises the same `ParseError`s, at the same positions.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from chcprecond.core import Atom, Clause, Pred, Program, initial_constraint_dnf
from chcprecond.linarith import Var, make_conj, make_constraint

# a linear term: coefficients, none of them zero, and a constant
Term = tuple[dict[Var, int], int]

_ZERO: Term = ({}, 0)


def _lin(a: Term, b: Term, k: int) -> Term:
    """The term a + k*b."""
    coeffs = dict(a[0])
    for v, c in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + k * c
    return {v: c for v, c in coeffs.items() if c}, a[1] + k * b[1]


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT VAR INT PUNCT EOF
    text: str
    line: int
    col: int


# Blanks, then one alternative per token kind, tried in order; a `%`
# comment matches unnamed.  Identifiers start with a letter (`str.isalpha`)
# or `_` and go on with letters, digits (`str.isalnum`) and `_`, which is
# what `\w` matches.  An ASCII start settles the kind in the pattern;
# otherwise `WORD` matches and the kind is read off the first character.
# Integers are runs of decimal digits, the ones `int` reads.  No
# alternative starts with a blank, so a match never gives blanks back.
_TOKEN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<NL>\n)
    | %[^\n]*
    | (?P<PUNCT>:-|=<|>=|[(),.=<>+\-*/])
    | (?P<INT>\d+)
    | (?P<VAR>[A-Z_]\w*)
    | (?P<IDENT>[a-z]\w*)
    | (?P<WORD>[^\W\d]\w*)
    | (?P<BAD>[^ \t\r])
    )
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending with EOF; positions count from 1.

    Every character but a newline takes one column, and a `%` comment runs
    to the end of its line.  The EOF token sits after the last blank, or at
    the `%` of a comment that ends the text.
    """
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        word = m.group(kind)
        col = m.start(kind) - line_start + 1
        if kind == "WORD":
            if not word[0].isalpha():
                kind = "BAD"
                word = word[0]
            else:
                kind = "VAR" if word[0].isupper() else "IDENT"
        if kind == "BAD":
            raise ParseError(f"unexpected character {word!r}", line, col)
        toks.append(Token(kind, word, line, col))
    last = text[line_start:].split("%", 1)[0]
    toks.append(Token("EOF", "", line, len(last) + 1))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def error(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    # -- items -----------------------------------------------------------

    def parse_items(self):
        directives = []
        raw_clauses = []
        while self.peek().kind != "EOF":
            if self.peek().text == ":-":
                directives.append(self.parse_directive())
            else:
                raw_clauses.append(self.parse_clause())
        return directives, raw_clauses

    def parse_directive(self) -> tuple[str, int]:
        self.expect(":-")
        t = self.next()
        if t.text != "initial":
            raise ParseError("unknown directive", t.line, t.col)
        self.expect("(")
        name = self.next()
        if name.kind != "IDENT":
            raise ParseError("predicate name expected", name.line, name.col)
        self.expect("/")
        arity = self.next()
        if arity.kind != "INT":
            raise ParseError("arity expected", arity.line, arity.col)
        self.expect(")")
        self.expect(".")
        return name.text, int(arity.text)

    def parse_clause(self):
        label = None
        if (
            self.peek().kind == "IDENT"
            and self.peek().text != "false"
            and self.peek(1).text == "."
        ):
            label = self.next().text
            self.expect(".")
        head = self.parse_head()
        body = []
        if self.peek().text == ":-":
            self.next()
            body.append(self.parse_body_elem())
            while self.peek().text == ",":
                self.next()
                body.append(self.parse_body_elem())
        self.expect(".")
        return label, head, body

    def parse_head(self):
        t = self.peek()
        if t.text == "false":
            self.next()
            return None
        if t.kind != "IDENT":
            raise ParseError("clause head expected", t.line, t.col)
        return self.parse_atom()

    def parse_atom(self):
        name = self.next()
        self.expect("(")
        args = [self.parse_term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_term())
        self.expect(")")
        return name.text, args, (name.line, name.col)

    def parse_body_elem(self):
        t = self.peek()
        if t.text == "true":
            self.next()
            return ("true",)
        if t.text == "false":
            raise ParseError("false in body", t.line, t.col)
        if t.kind == "IDENT" and self.peek(1).text == "(":
            return ("atom", self.parse_atom())
        # otherwise a constraint
        lhs = self.parse_term()
        rel = self.next()
        if rel.text not in ("=", "=<", ">=", "<", ">"):
            raise ParseError(f"relation expected, found {rel.text!r}", rel.line, rel.col)
        rhs = self.parse_term()
        return ("constr", lhs, rel.text, rhs)

    # -- terms -----------------------------------------------------------

    def parse_term(self) -> Term:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        acc = _lin(_ZERO, self.parse_product(), sign)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            acc = _lin(acc, self.parse_product(), 1 if op == "+" else -1)
        return acc

    def parse_product(self) -> Term:
        factors = [self.parse_factor()]
        while self.peek().text == "*":
            star = self.next()
            factors.append(self.parse_factor())
            if sum(1 for f in factors if f[0]) > 1:
                raise ParseError("nonlinear constraint", star.line, star.col)
        # the one factor with variables, if any, scaled by the literals
        scale, term = 1, ({}, 1)
        for f in factors:
            if f[0]:
                term = f
            else:
                scale *= f[1]
        return _lin(_ZERO, term, scale)

    def parse_factor(self) -> Term:
        t = self.next()
        if t.kind == "INT":
            return {}, int(t.text)
        if t.kind == "VAR":
            return {Var(t.text): 1}, 0
        if t.text == "-":
            return _lin(_ZERO, self.parse_factor(), -1)
        raise ParseError(f"term expected, found {t.text or 'end of input'!r}", t.line, t.col)


def _normalize_clause(label, head, body, index: int):
    """Flatten atom arguments to distinct fresh variables."""
    constraints = []
    used: set[str] = set()
    for elem in body:
        if elem[0] == "constr":
            used.update(v.name for v in (*elem[1][0], *elem[3][0]))
    if head is not None:
        for arg in head[1]:
            used.update(v.name for v in arg[0])
    for elem in body:
        if elem[0] == "atom":
            for arg in elem[1][1]:
                used.update(v.name for v in arg[0])
    fresh_n = 0

    def fresh() -> Var:
        nonlocal fresh_n
        while True:
            fresh_n += 1
            name = f"V{fresh_n}"
            if name not in used:
                used.add(name)
                return Var(name)

    def flatten(name: str, args: list[Term], pos) -> Atom:
        out: list[Var] = []
        for coeffs, const in args:
            if const == 0 and list(coeffs.values()) == [1]:
                (v,) = coeffs
                if v not in out:
                    out.append(v)
                    continue
            v = fresh()
            constraints.append(make_constraint(*_lin(({v: 1}, 0), (coeffs, const), -1), "="))
            out.append(v)
        return Atom(Pred(name, len(args)), tuple(out))

    head_atom = None
    if head is not None:
        head_atom = flatten(*head)
    body_atoms = []
    for elem in body:
        if elem[0] == "true":
            continue
        if elem[0] == "constr":
            rel = "<=" if elem[2] == "=<" else elem[2]
            constraints.append(make_constraint(*_lin(elem[1], elem[3], -1), rel))
        else:
            body_atoms.append(flatten(*elem[1]))
    cid = label if label is not None else f"c{index}"
    return Clause(cid, head_atom, make_conj(constraints), tuple(body_atoms))


def parse_program(text: str, initial: Optional[str] = None) -> Program:
    """Parse CHC source into a normalized Program.

    `initial` may give the initial predicate as "name/arity", overriding any
    directive in the text.
    """
    toks = tokenize(text)
    parser = _Parser(toks)
    directives, raw = parser.parse_items()
    if len(directives) > 1:
        raise ParseError("multiple initial declarations", 1, 1)
    if initial is not None:
        try:
            name, arity_s = initial.rsplit("/", 1)
            declared = (name, int(arity_s))
        except ValueError:
            raise ParseError(f"bad initial spec {initial!r}", 0, 0) from None
    elif directives:
        declared = directives[0]
    else:
        raise ParseError("initial predicate undeclared", 1, 1)

    clauses = []
    seen_ids = set()
    for i, (label, head, body) in enumerate(raw, start=1):
        cl = _normalize_clause(label, head, body, i)
        if cl.cid in seen_ids:
            raise ParseError(f"duplicate clause id {cl.cid!r}", 1, 1)
        seen_ids.add(cl.cid)
        clauses.append(cl)

    init_pred = Pred(*declared)
    occurs = any(
        (cl.head is not None and cl.head.pred == init_pred)
        or any(a.pred == init_pred for a in cl.body)
        for cl in clauses
    )
    if not occurs:
        raise ParseError(f"initial predicate {init_pred} unused", 1, 1)
    facts = [cl for cl in clauses if cl.is_fact() and cl.head.pred == init_pred]
    if not facts:
        raise ParseError(f"initial predicate {init_pred} has no constrained fact", 1, 1)

    program = Program(
        clauses=tuple(clauses),
        initial_preds=frozenset({init_pred}),
        init_args=facts[0].head.args,
        original_init=None,
    )
    return Program(
        clauses=program.clauses,
        initial_preds=program.initial_preds,
        init_args=program.init_args,
        original_init=initial_constraint_dnf(program),
    )
