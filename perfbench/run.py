"""Benchmark of the freqplan pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload s_iterate --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload repeats one timed chain in a closed loop on one thread until
``--seconds`` have passed and it has its minimum number of repetitions, then
checks every output and prints one line per metric. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``). A traced run alternates untraced and traced
repetitions; its spans are written to ``perfbench/out/`` at the end.

The benchmark imports freqplan from the ``src/`` directory next to
``perfbench/`` and exits with code 1, printing no result, when that is
missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "freqplan" / "__init__.py").is_file():
        print(f"error: no freqplan package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
