"""The paper's evaluation workloads as Cumulon programs.

The package re-exports the catalog and nothing else; each program builder
and its numpy reference are imported from the module that defines them.
"""

from repro.workloads.catalog import SCALES, WORKLOAD_NAMES, build_workload
