"""The repository benchmark (see README.md in this directory).

Importing this package starts nothing; the entry points are
``python -m benchmarks.perf`` and ``benchmarks/perf/run.py``.
"""
