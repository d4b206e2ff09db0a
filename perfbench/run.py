"""Run the cqapprox benchmark.

    python3 perfbench/run.py --workload doubling --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One workload prints a report and, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones). ``all`` runs every
workload untraced and traced, each in a fresh interpreter, and prints
every metric with its unit plus the tracing overhead.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "cqapprox" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cqapprox sources under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
