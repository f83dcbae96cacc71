"""End-to-end benchmark of tritnet; run it with ``python3 perfbench/run.py``."""
