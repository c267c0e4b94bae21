"""Path bootstrap: the benchmark's modules are flat scripts, not a package."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    sys.path.insert(0, str(path))
