"""Bounded search for concrete derivations of `false`, apart from the solver.

The search answers one question: from a given integer initial state, is
there a derivation of `false` whose height is at most `depth`?  It reads
the parsed program's canonical constraints (`sum(c * x) + const REL 0`)
and evaluates them on integers directly, the way `tests/helpers.holds`
does.  Nothing in `chcprecond.linarith` or `chcprecond.simplex` is called.

Evaluation is top-down with memoised answer sets.  A clause is solved by
binding the head from the call pattern, propagating equalities with one
unknown, answering the body atom with the most bound arguments first, and
enumerating whatever variables remain free over their interval, clipped to
`[-window, window]`.  A fact of the initial predicate holds only at the
initial state under test.  The search is therefore exact up to the stated
depth and window: a derivation it finds is real, and a miss only says none
exists within those bounds.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

FALSE_NAME = "false"


def holds(k, point: Mapping) -> bool:
    """One canonical constraint evaluated at an integer point."""
    total = sum(c * point[v] for v, c in k.coeffs) + k.const
    return total == 0 if k.rel == "=" else total <= 0


def holds_dnf(d, point: Mapping) -> bool:
    return any(all(holds(k, point) for k in c.constraints) for c in d.disjuncts)


class DerivationSearch:
    """Depth- and window-bounded derivations of `false` for one program."""

    def __init__(self, program, depth: int, window: int):
        self.depth = depth
        self.window = window
        self.initial = frozenset(program.initial_preds)
        self.by_head: dict = {}
        for cl in program.clauses:
            key = cl.head.pred if cl.head is not None else FALSE_NAME
            self.by_head.setdefault(key, []).append(cl)
        self._point: tuple[int, ...] = ()
        self._memo: dict = {}

    def reaches_false(self, point: Sequence[int]) -> bool:
        """True iff some derivation of height <= depth starts at `point`."""
        self._point = tuple(point)
        self._memo = {}
        return bool(self._answers(FALSE_NAME, (), self.depth))

    # -- answering atoms -------------------------------------------------------

    def _answers(self, pred, pattern: tuple, depth: int) -> tuple[tuple[int, ...], ...]:
        """Ground argument tuples for `pred` matching `pattern` (None = free)."""
        if depth <= 0:
            return ()
        key = (pred, pattern, depth)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        found: dict[tuple[int, ...], None] = {}
        for cl in self.by_head.get(pred, ()):
            head = cl.head.args if cl.head is not None else ()
            env: dict = {}
            if not cl.body and pred in self.initial:
                # an initial fact holds only at the state under test
                if any(want is not None and want != got for want, got in zip(pattern, self._point)):
                    continue
                env.update(zip(head, self._point))
            else:
                env.update((v, x) for v, x in zip(head, pattern) if x is not None)
            for sol in self._solve(cl.constr.constraints, cl.body, env, head, depth - 1):
                found.setdefault(tuple(sol[v] for v in head))
        out = tuple(found)
        self._memo[key] = out
        return out

    def _solve(self, constraints, atoms, env: dict, need, depth: int) -> Iterator[dict]:
        env = _propagate(constraints, env)
        if env is None:
            return
        if atoms:
            i = max(range(len(atoms)), key=lambda j: (sum(v in env for v in atoms[j].args), -j))
            atom, rest = atoms[i], atoms[:i] + atoms[i + 1 :]
            pattern = tuple(env.get(v) for v in atom.args)
            for values in self._answers(atom.pred, pattern, depth):
                nxt = dict(env)
                nxt.update(zip(atom.args, values))
                yield from self._solve(constraints, rest, nxt, need, depth)
            return
        free = sorted(
            {v for k in constraints for v, _ in k.coeffs if v not in env}
            | {v for v in need if v not in env},
            key=lambda v: v.name,
        )
        if not free:
            if all(holds(k, env) for k in constraints):
                yield env
            return
        v = free[0]
        lo, hi = _interval(constraints, env, v, self.window)
        for x in range(lo, hi + 1):
            nxt = dict(env)
            nxt[v] = x
            yield from self._solve(constraints, (), nxt, need, depth)


def _propagate(constraints, env: dict) -> Optional[dict]:
    """Bind variables fixed by an equality with one unknown; None on conflict."""
    env = dict(env)
    changed = True
    while changed:
        changed = False
        for k in constraints:
            unknown = [(v, c) for v, c in k.coeffs if v not in env]
            rest = k.const + sum(c * env[v] for v, c in k.coeffs if v in env)
            if not unknown:
                if (rest != 0) if k.rel == "=" else (rest > 0):
                    return None
            elif len(unknown) == 1 and k.rel == "=":
                v, c = unknown[0]
                if rest % c:
                    return None
                env[v] = -rest // c
                changed = True
    return env


def _interval(constraints, env: Mapping, v, window: int) -> tuple[int, int]:
    """Integer bounds on `v` from inequalities where it is the only unknown."""
    lo, hi = -window, window
    for k in constraints:
        if k.rel != "<=":
            continue
        unknown = [(w, c) for w, c in k.coeffs if w not in env]
        if len(unknown) != 1 or unknown[0][0] != v:
            continue
        c = unknown[0][1]
        rest = k.const + sum(cf * env[w] for w, cf in k.coeffs if w in env)
        # c * v + rest <= 0
        if c > 0:
            hi = min(hi, (-rest) // c)
        else:
            lo = max(lo, -((-rest) // -c))
    return lo, hi
