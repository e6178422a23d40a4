"""Closed-loop benchmark of the transact simulator; run ``perfbench/run.py``."""
