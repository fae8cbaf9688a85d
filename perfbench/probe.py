"""Time one cold set-up in a fresh interpreter and print it as JSON.

Set-up is everything before the first run: importing ``repro``, building
the seeded inputs, parsing, applying the motif stack and compiling.
``run.py`` starts this script several times and reports the median.

    python3 perfbench/probe.py --workload tr1_tree --seed 0
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from checkout import use_checkout_source  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_checkout_source()
    from workloads import load_workload

    imported = time.perf_counter()
    workload = load_workload(args.workload, args.seed)
    built = time.perf_counter()
    phases = workload.setup()
    ready = time.perf_counter()
    print(json.dumps({
        "import_s": imported - START,
        "inputs_s": built - imported,
        **phases,
        "setup_s": ready - START,
    }))


if __name__ == "__main__":
    main()
