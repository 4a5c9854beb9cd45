"""The repository benchmark: end-to-end workloads and a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload ycsb-b-write --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-end-to-end map.
"""
