"""Synthetic dataset generators for the evaluation workloads."""
