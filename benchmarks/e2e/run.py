"""Run the end-to-end benchmark from a checkout: ``python3 benchmarks/e2e/run.py``.

Puts the checkout's ``src`` on the import path itself, so no environment
set-up is needed. Options are described by ``--help``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT} holds no src/repro package to benchmark")
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.harness import main  # noqa: E402

raise SystemExit(main())
