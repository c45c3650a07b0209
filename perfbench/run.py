"""Entry point of the repository benchmark; see ``perfbench/bench.py``.

Run from the repository root::

    python3 perfbench/run.py --workload lcc-reuse --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the same checkout.
Without it the benchmark exits with status 2 and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One process, no helper threads: pin BLAS/OpenMP pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main

    sys.exit(main())
