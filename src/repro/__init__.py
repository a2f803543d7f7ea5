"""repro: a reproduction of Cumulon (SIGMOD 2013).

Cumulon helps users develop and deploy matrix-based big-data analysis
programs in the cloud: a tiled-matrix execution engine built on (simulated)
Hadoop/HDFS that avoids MapReduce's limitations, plus a cost-based optimizer
that jointly picks physical operators, their parameters, hardware
provisioning, and configuration settings under time/budget constraints.

Quick tour::

    from repro.api import Program, run_program
    from repro.api import DeploymentOptimizer, SearchSpec, search

    p = Program("demo")
    a = p.declare_input("A", 1000, 1000)
    b = p.declare_input("B", 1000, 1000)
    p.assign("C", a @ b * 2.0)
    p.mark_output("C")

    result = run_program(p, {"A": ..., "B": ...})     # really computes C
    optimizer = DeploymentOptimizer(p, tile_size=256) # prices cloud plans
    plan = search(optimizer, SearchSpec(objective="min-cost",
                                        deadline_seconds=3600.0)).plan
"""

__version__ = "1.0.0"
