"""End-to-end verdict benchmark over the whole checking stack.

See ``README.md`` in this directory; the entry point is
:func:`benchmarks.e2e.harness.main`.
"""
