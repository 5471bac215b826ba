"""Benchmark for the near-stream computing model; run ``nsbench/run.py``."""
