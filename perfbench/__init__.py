"""Benchmark of the hdmas-verify CLI: time to verdict along the state,
action and quantifier-prefix axes, with a traced split by layer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
