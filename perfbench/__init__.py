"""The repository benchmark: three workloads, measured end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints one JSON result line; see ``perfbench/README.md``.
"""
