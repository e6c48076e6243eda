"""Repository benchmark: cold dense compiles, warm served hits, open-loop serving.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/design.json`` records
why each workload exists and what each metric should move.
"""
