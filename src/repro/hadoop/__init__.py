"""Simulated Hadoop engine: tasks, jobs, slot scheduling, local execution."""
