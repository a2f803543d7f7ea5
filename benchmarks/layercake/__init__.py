"""Layer-cake benchmark: four workloads, best-block metrics, layer probes.

See README.md in this directory.  Entry points:
``python -m benchmarks.layercake.run`` and ``python -m benchmarks.layercake.aa``.
"""
