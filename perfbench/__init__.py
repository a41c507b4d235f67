"""End-to-end benchmark of the clustered-FBB reproduction.

Run ``python3 perfbench/run.py --workload NAME`` from the repository
root; README.md in this directory describes the workloads and metrics.
"""
