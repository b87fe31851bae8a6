"""The benchmark's workloads: their programs, settings, boxes and checks.

Importing this module does not import `chcprecond`; `use_checkout_src` puts
the checkout's own `src/` first on the path, and `build` parses the inputs.
That keeps the import of the package inside the timed set-up.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"


@dataclass(frozen=True)
class Spec:
    """What one workload runs and how its outputs are checked.

    `boxes` maps the initial predicate's arity to the box of initial
    states, one (low, high) pair per argument; `depth` and `window` bound the
    independent derivation search.  `stated` maps a label to a predicate
    that every accepted point must meet, and `exact` to the precondition
    text the program's header comment implies.
    """

    iterations: int
    depth: int
    window: int
    boxes: dict[int, list[tuple[int, int]]]
    stated: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)


# The nine corpus programs other than fig1, whose safe sets are given in
# their header comments where the comment states one.
CORPUS_SMALL = (
    "already_safe", "branch_split", "chain_skip", "counter_loop", "cs_example",
    "example_t4", "example_t4_cs0", "no_safe_states", "two_inits",
)

GEN_SEED = 1
GEN_COUNT = 16


SPECS = {
    "fig1-deep": Spec(
        iterations=4,
        depth=20,
        window=200,
        boxes={2: [(90, 110), (-4, 24)]},
        stated={"fig1": lambda a, b: b != 2 * abs(a - 100)},
    ),
    "corpus-small": Spec(
        iterations=3,
        depth=16,
        window=16,
        boxes={1: [(-40, 40)], 2: [(-6, 6)] * 2, 4: [(-2, 2)] * 4},
        stated={
            "branch_split": lambda a: a not in (5, 35),
            "counter_loop": lambda a: a < 0,
            "two_inits": lambda a: a != 0,
            "chain_skip": lambda a: -9 <= a <= 9,
        },
        exact={"no_safe_states": "false", "already_safe": "true"},
    ),
    "gen-multivar": Spec(
        iterations=1,
        depth=16,
        window=16,
        boxes={2: [(-6, 6)] * 2},
    ),
}


@dataclass
class Case:
    """One distinct program of a workload."""

    label: str
    text: str
    program: object = None


def use_checkout_src() -> None:
    """Import `chcprecond` from this checkout's `src/`, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    import chcprecond

    origin = Path(chcprecond.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"chcprecond imported from {origin}, not from {SRC}")


def read_texts(name: str) -> list[Case]:
    """Read or generate the workload's program texts."""
    if name == "fig1-deep":
        return [Case("fig1", (CORPUS / "fig1.chc").read_text())]
    if name == "corpus-small":
        return [Case(n, (CORPUS / f"{n}.chc").read_text()) for n in CORPUS_SMALL]
    if name == "gen-multivar":
        texts = gen.programs(GEN_SEED, GEN_COUNT)
        return [Case(f"gen{GEN_SEED}.{i}", t) for i, t in enumerate(texts)]
    raise KeyError(name)


def build(name: str) -> list[Case]:
    """Read or generate the inputs and parse them."""
    from chcprecond import parse_program

    cases = read_texts(name)
    for c in cases:
        c.program = parse_program(c.text)
    return cases
