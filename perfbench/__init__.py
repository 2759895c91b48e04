"""Repository benchmark: closed-loop Read Until replay through ``open_session().submit``.

Run one workload per process::

    python3 perfbench/run.py --workload flowcell_default --seed 1 --seconds 34 --trace 0

See ``perfbench/README.md`` for the metrics, their layers and the workloads.
"""
