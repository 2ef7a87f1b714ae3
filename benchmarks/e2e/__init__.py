"""The repository's end-to-end benchmark: five workloads, host and
simulated end-to-end metrics, and a traced round for per-layer numbers.

Run ``python -m benchmarks.e2e --help``; see README.md in this directory.
"""
