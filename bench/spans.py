"""Spans around the package's layer boundaries, recorded from outside it.

`Tracer.install` wraps each function in `FUNCTIONS` and rebinds the wrapper
in every `chcprecond` module that holds the original, because the modules
import each other's names with `from .linarith import ...`.  Methods in
`METHODS` are wrapped on their class.  A span records its name, the
operation it belongs to, its parent span, start and end; spans stay in
compact arrays until `write` stores them.  Self time is a span's duration
minus the time of the traced spans directly under it; inclusive time counts
a name once however deeply it recurses.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, function) pairs; the span name is "module.function"
FUNCTIONS = (
    ("parser", "parse_program"),
    ("pe", "pe_run"),
    ("cs", "constraint_specialise"),
    ("polyhedra", "join"),
    ("polyhedra", "widen"),
    ("derivation", "find_counterexample"),
    ("te", "eliminate_trace"),
    ("precond", "extract_swp"),
    ("precond", "final_precondition"),
    ("precond", "classify"),
    ("linarith", "negate_dnf"),
    ("linarith", "make_dnf"),
    ("linarith", "project"),
    ("linarith", "entails"),
    ("linarith", "satisfiable"),
    ("linarith", "int_satisfiable"),
    ("simplex", "int_feasible"),
)

# (module, class, method); the span name is "module.method"
METHODS = (
    ("simplex", "Simplex", "check"),
    ("simplex", "Budget", "spend"),
)

# clauses in the program a transformation returns
_CLAUSES_OUT = {
    "pe.pe_run": lambda r: len(r.program.clauses),
    "cs.constraint_specialise": lambda r: len(r.program.clauses),
    "te.eliminate_trace": lambda r: len(r[0].clauses),
}


class Tracer:
    """Spans, self and inclusive times, and call counts of one traced run."""

    def __init__(self) -> None:
        self.op = -1
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.calls: list[int] = []
        self._active: list[int] = []
        self.clauses_out: Counter = Counter()
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "chcprecond"]
        for modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"chcprecond.{modname}"], attr)
            traced = self._wrap(f"{modname}.{attr}", orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, traced)
        for modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[f"chcprecond.{modname}"], clsname)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{modname}.{meth}", orig))

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Self seconds, inclusive seconds and call count per span name."""
        return {
            n: (self.self_s[i], self.incl_s[i], self.calls[i])
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Store every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.calls.append(0)
        self._active.append(0)
        active = self._active
        count_out = _CLAUSES_OUT.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                dur = end - start
                self.self_s[nid] += dur - frame[1]
                self.calls[nid] += 1
                active[nid] -= 1
                if not active[nid]:
                    self.incl_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if count_out is not None:
                self.clauses_out[name] += count_out(result)
            return result

        return traced
