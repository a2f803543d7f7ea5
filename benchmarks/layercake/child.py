"""The subprocess ``run.py`` spawns for one workload (or the layer probes).

``python -m benchmarks.layercake.child '<json config>'`` runs it and
prints the result document as the last line of stdout.  The exit code is
0 only when every op succeeded and every output check passed.
"""

from __future__ import annotations

import importlib
import json
import sys

#: config["kind"] -> the module whose ``run(config)`` does the work.
MODULES = {
    "plan_cold": "plan_cold",
    "exec_fine": "exec_chain",
    "exec_coarse": "exec_chain",
    "serve_closed": "serve_closed",
    "probes": "probes",
}


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    module = importlib.import_module(
        f"benchmarks.layercake.{MODULES[config['kind']]}")
    doc = module.run(config)
    sys.stdout.flush()
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
