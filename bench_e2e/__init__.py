"""bench_e2e: the end-to-end benchmark of the RUM-tree stack.

Run ``python3 bench_e2e/run.py --help`` from the repository root; the
metric names, workloads and layer map are in ``bench_e2e/README.md``.
"""
