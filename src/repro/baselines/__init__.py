"""Baseline systems: SystemML-style MapReduce plans, single node."""
