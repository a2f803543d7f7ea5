"""A full PCA pipeline: ingest text -> standardize -> sketch -> components.

Exercises the whole library surface on one realistic task:

1. a CSV dataset is parsed and tiled into a simulated HDFS cluster,
2. the PCA program (broadcast standardization + covariance + randomized
   sketch) compiles to map-only jobs — shown via EXPLAIN,
3. it executes for real, components are extracted locally, and
4. the cloud-scale variant is priced, with a cluster-utilization timeline.

Run with:  python examples/pca_pipeline.py
"""

import numpy as np

from repro.api import (
    ClusterSpec,
    CompilerParams,
    CumulonExecutor,
    get_instance_type,
)
from repro.cloud.provisioning import provision
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.explain import explain_program
from repro.core.optimizer import DEFAULT_MATMUL_OPTIONS
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.hadoop.metrics import render_timeline, utilization
from repro.hdfs.tilestore import TileStore
from repro.ingest.loader import ingest_csv
from repro.ingest.parser import format_csv_matrix
from repro.workloads.pca import (
    build_pca_program,
    explained_variance_ratio,
    principal_components,
)


def make_dataset(rows=300, features=16, seed=29) -> np.ndarray:
    """Data with 3 planted directions plus noise, serialized as CSV."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((features, 3))
    scores = rng.standard_normal((rows, 3)) * np.array([6.0, 4.0, 2.0])
    return scores @ basis.T + 0.2 * rng.standard_normal((rows, features))


def main() -> None:
    rows, features, sketch = 300, 16, 6

    # -- 1. ingest CSV into a provisioned (simulated) HDFS cluster --------
    data = make_dataset(rows, features)
    csv_text = format_csv_matrix(data, precision=10)
    spec = ClusterSpec(get_instance_type("m1.large"), 3, 2)
    store = TileStore(provision(spec, replication=2))
    matrix = ingest_csv("X", csv_text, tile_size=64, backing=store)
    print(f"ingested {len(csv_text) / 1024:.0f} KB of text into "
          f"{matrix.nbytes() / 1024:.0f} KB of tiles "
          f"({matrix.grid.num_tiles} tiles, replication 2)\n")

    # -- 2. compile and explain the PCA program ---------------------------
    program = build_pca_program(rows, features, sketch)
    compiled = compile_program(program, PhysicalContext(64))
    print(explain_program(compiled))

    # -- 3. execute and extract components ---------------------------------
    rng = np.random.default_rng(0)
    g = rng.standard_normal((features, sketch))
    executor = CumulonExecutor(tile_size=64, backing=store)
    result = executor.run(program, {"X": data, "G": g})
    components = principal_components(result.output("S"), 3)
    ratio = explained_variance_ratio(result.output("C"), components)
    print(f"\ntop-3 components capture {ratio:.1%} of the variance")

    # -- 4. price the cloud-scale version ----------------------------------
    # The Gram multiply Z'Z over a 1M-row Z needs a deep inner-dimension
    # split (a 2048-tile strip would never fit slot memory): tune the split
    # factors the way the deployment optimizer does.
    big = build_pca_program(1048576, 4096, 512)
    big_spec = ClusterSpec(get_instance_type("c1.xlarge"), 8, 4)
    best = None
    for matmul in DEFAULT_MATMUL_OPTIONS:
        compiled_big = compile_program(big, PhysicalContext(2048),
                                       CompilerParams(matmul=matmul))
        estimate = simulate_program(compiled_big.dag, big_spec,
                                    CumulonCostModel())
        if best is None or estimate.seconds < best[0].seconds:
            best = (estimate, matmul)
    estimate, matmul = best
    report = utilization(estimate.simulation)
    print(f"\nat 1M x 4096 on {big_spec.describe()} "
          f"(tuned split {matmul.k_splits}-way): "
          f"{estimate.seconds / 60:.1f} min, "
          f"{report.utilization:.0%} slot utilization")
    print(render_timeline(estimate.simulation, width=60))


if __name__ == "__main__":
    main()
