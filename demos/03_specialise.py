"""Polyvariant specialisation: split predicates by the properties they satisfy.

The run keeps a table of which versions and clauses were added at each
step; `dump` prints that table one step at a time.
"""

from pathlib import Path

from chcprecond import parse_program, pe_run
from chcprecond.core import format_program
from chcprecond.linarith import format_conj

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "corpus"


def main() -> None:
    p = parse_program((CORPUS / "fig1.chc").read_text())
    r = pe_run(p)

    print(r.dump())
    print()
    print(f"specialised program, {len(r.program.clauses)} clauses:")
    print(format_program(r.program))
    print()

    print("note the three versions of the initial predicate:")
    for cl in r.program.initial_clauses():
        print(f"  {cl.cid}. {cl.head.pred.name} under {format_conj(cl.constr)}")


if __name__ == "__main__":
    main()
