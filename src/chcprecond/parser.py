"""Parser for the textual CHC format.

The format is one clause per line group, terminated by a period:

    % comment to end of line
    :- initial(init/2).
    c1. init(A,B).
    c2. if(A,B) :- A0 =< 100, A = 100 - A0, init(A0,B).
    false :- A =< 0, B = 0, while(A,B).

Heads are `false` or `name(args)`.  Bodies mix constraints and atoms freely.
Constraints relate two linear terms with `=`, `=<`, `>=`, `<` or `>`; terms
are built from integer literals, variables (leading uppercase or underscore)
and `+`, `-`, `*` with multiplication restricted to a literal on one side.
The optional leading `c1.` style label becomes the clause identifier;
unlabelled clauses get `c<k>` by position.

`parse_program` reads the text in one pass: one `re.findall` splits it
into a flat list of token strings, and the parser walks that list by index,
reading a token's kind off its first character.  Each side of a constraint
is summed into one coefficient map, and each constraint is built with one
`make_constraint`.  Tokens carry no positions: only when parsing stops is
the same pattern walked again, with `finditer`, to raise on the first
unexpected character or else to place the token where it stopped by its
match offset.  A clause of the generated two-variable programs takes about
40 us to read, and one of the 1,500-clause chain of one-atom clauses about
12 us (Python 3.11, x86_64).

Parsing normalizes atoms: every argument becomes a distinct variable and the
bindings move into the clause constraint, so `p(X,X)` turns into `p(X,V1)`
with `X = V1` conjoined.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import Atom, Clause, Pred, Program
from .linarith import LinConstraint, Var, make_conj, make_constraint

# a term and an atom as read; a variable whose occurrences cancel keeps a 0
Term = tuple[dict[Var, int], int]
RawAtom = tuple[str, list[Term]]


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# One pattern splits the text: the two-character operators, a run of decimal
# digits (the ones `int` reads), a word of `\w` characters (letters, digits
# and `_`), a `%` comment to the end of its line, or any other character but
# a blank.  `\d+` comes first, so a word never starts with a decimal digit.
# A kind is read off a token's first character.
_LEX = re.compile(r":-|=<|>=|\d+|\w+|%[^\n]*|[^ \t\r\n]")
_split = _LEX.findall

_PUNCT = frozenset((":-", "=<", ">=", *"(),.=<>+-*/"))

_RELATIONS = {"=": "=", "=<": "<=", ">=": ">=", "<": "<", ">": ">"}

_ASCII_VAR = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _is_var(t: str) -> bool:
    return t[:1] in _ASCII_VAR or t[:1].isalpha() and t[0].isupper()


def _is_ident(t: str) -> bool:
    return t[:1].isalpha() and not t[0].isupper()


class _Stop(Exception):
    """Parsing stopped: args are the token's index and the message."""


def _expected(toks: list[str], i: int, text: str) -> _Stop:
    return _Stop(i, f"expected {text!r}, found {toks[i] or 'end of input'!r}")


def _term(toks: list[str], i: int, coeffs: dict[Var, int]) -> tuple[int, int]:
    """Add the term at toks[i] into `coeffs`; the next index and the constant.

    A product is literals and at most one variable, each factor behind any
    number of `-`; its sign and literals scale the variable, or make a
    constant when there is none.
    """
    const, sign = 0, 1
    while True:
        scale, var, star = sign, None, 0
        while True:
            t = toks[i]
            i += 1
            while t == "-":
                scale = -scale
                t = toks[i]
                i += 1
            if t.isdecimal():
                scale *= int(t)
            elif _is_var(t):
                if var is not None:
                    raise _Stop(star, "nonlinear constraint")
                var = t
            else:
                raise _Stop(i - 1, f"term expected, found {t or 'end of input'!r}")
            if toks[i] != "*":
                break
            star = i
            i += 1
        if var is None:
            const += scale
        else:
            var = Var(var)
            coeffs[var] = coeffs.get(var, 0) + scale
        t = toks[i]
        if t == "+":
            sign = 1
        elif t == "-":
            sign = -1
        else:
            return i, const
        i += 1


def _atom(toks: list[str], i: int) -> tuple[int, RawAtom]:
    """The atom whose name is toks[i]: the next index, the name and arguments."""
    if toks[i + 1] != "(":
        raise _expected(toks, i + 1, "(")
    name, i = toks[i], i + 2
    args = []
    while True:
        coeffs: dict[Var, int] = {}
        i, const = _term(toks, i, coeffs)
        args.append((coeffs, const))
        if toks[i] != ",":
            break
        i += 1
    if toks[i] != ")":
        raise _expected(toks, i, ")")
    return i + 1, (name, args)


def _directive(toks: list[str], i: int) -> tuple[int, tuple[str, int]]:
    """The `:- initial(name/arity).` at toks[i]: the next index and its spec."""
    if toks[i + 1] != "initial":
        raise _Stop(i + 1, "unknown directive")
    if toks[i + 2] != "(":
        raise _expected(toks, i + 2, "(")
    if not _is_ident(toks[i + 3]):
        raise _Stop(i + 3, "predicate name expected")
    if toks[i + 4] != "/":
        raise _expected(toks, i + 4, "/")
    if not toks[i + 5].isdecimal():
        raise _Stop(i + 5, "arity expected")
    for j, text in ((i + 6, ")"), (i + 7, ".")):
        if toks[j] != text:
            raise _expected(toks, j, text)
    return i + 8, (toks[i + 3], int(toks[i + 5]))


def _clause(cid: str, head: Optional[RawAtom], atoms: list[RawAtom],
            constraints: list[LinConstraint], sides: list[dict[Var, int]]) -> Clause:
    """The clause with atom arguments flattened to distinct variables: one
    that is not a variable of its own becomes a fresh `V<n>`, bound in the
    constraint, named apart from every variable with a nonzero coefficient
    in a constraint side or an argument."""
    used: Optional[set[Var]] = None
    fresh_n = 0
    out: list[Optional[Atom]] = []
    for atom in (head, *atoms):
        if atom is None:
            out.append(None)
            continue
        name, args = atom
        vs: list[Var] = []
        for coeffs, const in args:
            live = list(coeffs.items())
            if len(live) > 1:
                live = [vc for vc in live if vc[1]]
            if not const and len(live) == 1 and live[0][1] == 1 and live[0][0] not in vs:
                vs.append(live[0][0])
                continue
            if used is None:
                terms = list(sides)
                for a in filter(None, (head, *atoms)):
                    terms.extend(coeffs for coeffs, _ in a[1])
                used = {v for d in terms for v, c in d.items() if c}
            while True:
                fresh_n += 1
                w = Var(f"V{fresh_n}")
                if w not in used:
                    break
            used.add(w)
            binding = {v: -c for v, c in coeffs.items()}
            binding[w] = binding.get(w, 0) + 1
            constraints.append(make_constraint(binding, -const, "="))
            vs.append(w)
        out.append(Atom(Pred(name, len(args)), tuple(vs)))
    return Clause(cid, out[0], make_conj(constraints), tuple(out[1:]))


def _read(toks: list[str]) -> tuple[list[tuple[str, int]], list[Clause]]:
    """The directives and clauses of a token list that ends with ""."""
    directives, clauses, i = [], [], 0
    while toks[i]:
        t = toks[i]
        if t == ":-":
            i, spec = _directive(toks, i)
            directives.append(spec)
            continue
        if toks[i + 1] == "." and t != "false" and _is_ident(t):
            cid = t
            i += 2
            t = toks[i]
        else:
            cid = f"c{len(clauses) + 1}"
        if t == "false":
            head = None
            i += 1
        elif _is_ident(t):
            i, head = _atom(toks, i)
        else:
            raise _Stop(i, "clause head expected")
        atoms, constraints, sides = [], [], []
        if toks[i] == ":-":
            while True:
                i += 1
                t = toks[i]
                if t == "true":
                    i += 1
                elif t == "false":
                    raise _Stop(i, "false in body")
                elif _is_ident(t) and toks[i + 1] == "(":
                    i, atom = _atom(toks, i)
                    atoms.append(atom)
                else:
                    lhs: dict[Var, int] = {}
                    i, lc = _term(toks, i, lhs)
                    rel = _RELATIONS.get(toks[i])
                    if rel is None:
                        raise _Stop(i, f"relation expected, found {toks[i]!r}")
                    rhs: dict[Var, int] = {}
                    i, rc = _term(toks, i + 1, rhs)
                    sides.append(lhs)
                    if rhs:
                        sides.append(rhs)
                        both = lhs.copy()
                        for v, c in rhs.items():
                            both[v] = both.get(v, 0) - c
                        lhs = both
                    constraints.append(make_constraint(lhs, lc - rc, rel))
                if toks[i] != ",":
                    break
        if toks[i] != ".":
            raise _expected(toks, i, ".")
        i += 1
        clauses.append(_clause(cid, head, atoms, constraints, sides))
    return directives, clauses


def _placed(text: str, index: int, message: str) -> ParseError:
    """The error at token `index` of `text`, past the last token at the end
    of input, unless an unexpected character anywhere comes first.

    Comments are skipped.  Lines count from 1 and end at `\n`; every other
    character takes one column.  The end of input sits on the last line,
    after its blanks or at the `%` of a comment that ends the text.
    """
    at, k = None, 0
    for m in _LEX.finditer(text):
        t = m.group()
        if t[0] == "%":
            continue
        if t not in _PUNCT and not (t[0] == "_" or t[0].isalpha() or t[0].isdecimal()):
            at, message = m.start(), f"unexpected character {t[0]!r}"
            break
        if k == index:
            at = m.start()
        k += 1
    if at is None:
        at = text.find("%", text.rfind("\n") + 1)
        if at < 0:
            at = len(text)
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def parse_program(text: str, initial: Optional[str] = None) -> Program:
    """Parse CHC source into a normalized Program.

    `initial` may give the initial predicate as "name/arity", overriding any
    directive in the text.
    """
    toks = _split(text)
    if "%" in text:
        toks = [t for t in toks if t[0] != "%"]
    toks.append("")
    try:
        directives, clauses = _read(toks)
    except _Stop as stop:
        raise _placed(text, *stop.args) from None
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

    seen_ids = set()
    for cl in clauses:
        if cl.cid in seen_ids:
            raise ParseError(f"duplicate clause id {cl.cid!r}", 1, 1)
        seen_ids.add(cl.cid)

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

    return Program(tuple(clauses), frozenset({init_pred}), facts[0].head.args)
