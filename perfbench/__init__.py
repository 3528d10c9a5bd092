"""Closed-loop benchmark of the reproduction; entry point ``perfbench/run.py``."""
