"""``PYTHONPATH=src python -m benchmarks.e2e``; the same as ``run.py``."""

from .harness import main

raise SystemExit(main())
