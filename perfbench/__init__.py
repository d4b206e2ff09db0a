"""Benchmark of the cqapprox library and CLI; see run.py."""
