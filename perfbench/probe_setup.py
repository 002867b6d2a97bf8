"""One set-up, timed in a fresh process: import germforge, then generate and
write the workload's inputs.  Prints the seconds it took.

    python3 perfbench/probe_setup.py <workload> <seed> <input directory>

run.py starts this several times and reports the median as setup_s."""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    start = perf_counter()
    import germforge  # noqa: F401

    from workloads import generate, write_inputs

    write_inputs(generate(workload, seed), out)
    print(perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
