"""Time one cold set-up in this fresh interpreter.

    python3 bench/setup_probe.py <workload>

Imports `chcprecond` from the checkout, then reads, generates and parses
the workload's inputs, and prints {"import_s": ..., "inputs_s": ...}.
"""

import json
import sys
import time

import workloads


def main() -> None:
    t0 = time.perf_counter()
    workloads.use_checkout_src()
    t1 = time.perf_counter()
    workloads.build(sys.argv[1])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


if __name__ == "__main__":
    main()
