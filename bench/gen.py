"""Seeded generator of two-variable CHC programs for the gen-multivar workload.

It grows the one-variable generator of `tests/test_properties.py` to two
variables: an initial fact, two clauses that enter a loop predicate
from the initial state through a guard and a translation, `loops`
self-recursive clauses that step A down and keep B, and one goal clause.
The same seed and shape always give the same program text.

    python3 bench/gen.py --seed 7 --count 3
"""

from __future__ import annotations

import argparse
import random


def generate(rng: random.Random, loops: int = 1) -> str:
    lines = [":- initial(init/2)."]

    def emit(text: str) -> None:
        lines.append(f"c{len(lines)}. {text}")

    lo = rng.randint(-4, 2)
    init = rng.choice(["", f" :- A >= {lo}", f" :- B =< {lo + rng.randint(2, 6)}",
                       f" :- A >= {lo}, B >= {lo}"])
    emit(f"init(A,B){init}.")
    for _ in range(2):
        guard = rng.choice([
            f"A0 >= {rng.randint(-3, 3)}", f"A0 =< {rng.randint(-3, 3)}",
            f"B0 >= {rng.randint(-3, 3)}", f"A0 - B0 >= {rng.randint(-2, 2)}",
        ])
        emit(f"q(A,B) :- {guard}, A = A0{_plus(rng.randint(-2, 2))}, "
             f"B = B0{_plus(rng.randint(-2, 2))}, init(A0,B0).")
    for _ in range(loops):
        guard = rng.choice([f"A0 >= {rng.randint(0, 2)}", f"A0 - B0 >= {rng.randint(-1, 1)}"])
        emit(f"q(A,B) :- {guard}, A = A0 - {rng.choice([1, 2])}, B = B0, q(A0,B0).")
    goal = rng.choice([
        f"A = {rng.randint(-3, 3)}, B = {rng.randint(-3, 3)}",
        f"A =< {rng.randint(-2, 2)}, B >= {rng.randint(0, 4)}",
        f"A + B = {rng.randint(-2, 4)}, A =< 0",
        f"B - A >= {rng.randint(2, 6)}",
    ])
    emit(f"false :- {goal}, q(A,B).")
    return "\n".join(lines) + "\n"


def _plus(n: int) -> str:
    return f" + {n}" if n > 0 else f" - {-n}" if n < 0 else ""


def programs(seed: int, count: int, loops: int = 1) -> list[str]:
    """`count` program texts drawn from one seeded stream."""
    rng = random.Random(seed)
    return [generate(rng, loops) for _ in range(count)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--loops", type=int, default=1)
    args = ap.parse_args()
    for text in programs(args.seed, args.count, args.loops):
        print(text)


if __name__ == "__main__":
    main()
