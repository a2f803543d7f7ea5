"""The paper's tables regenerate byte for byte: E1-E3 and E5-E21.

Every simulation experiment prices its rows with the deterministic
reference coefficients, so its table in ``benchmarks/results/`` is a
function of the code alone.  This runs those bench files once, in a
subprocess with timing off (``--benchmark-disable``) and with
``benchmarks.common.RESULTS_DIR`` pointed at a temporary directory, then
compares every table it wrote with the committed one.  A change to the
compiler, the cost model, the simulator or HDFS placement that moves one
number fails here, in tier-1.  E4 (measured on this machine) and E22 on
(timings and scoreboards) are not deterministic and are not compared.

Regenerate after a deliberate change to one of those numbers::

    PYTHONPATH=src python tests/test_paper_tables.py --regenerate
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: The deterministic experiments: E1-E21 without E4.
EXPERIMENTS = [number for number in range(1, 22) if number != 4]
BENCHES = sorted(
    path for path in (REPO_ROOT / "benchmarks").glob("bench_e*.py")
    if int(re.match(r"bench_e(\d+)_", path.name).group(1)) in EXPERIMENTS)

#: Runs pytest on the bench files with the tables redirected to argv[1].
RUNNER = """
import sys
import pytest
import benchmarks.common
benchmarks.common.RESULTS_DIR = sys.argv[1]
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                      *sys.argv[2:]]))
"""


def is_table(name: str) -> bool:
    match = re.fullmatch(r"e(\d\d)[a-z]?\.txt", name)
    return match is not None and int(match.group(1)) in EXPERIMENTS


def regenerate(directory: str) -> subprocess.CompletedProcess:
    """Run the bench files, writing their tables into ``directory``."""
    env = dict(os.environ)
    env.pop("REPRO_BENCH_TINY", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", RUNNER, directory,
         *(str(path) for path in BENCHES)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)


def test_every_deterministic_bench_is_covered():
    assert [int(re.match(r"bench_e(\d+)_", path.name).group(1))
            for path in BENCHES] == EXPERIMENTS


def test_tables_regenerate_byte_identical(tmp_path):
    pytest.importorskip("pytest_benchmark")
    done = regenerate(str(tmp_path))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    written = sorted(name for name in os.listdir(tmp_path) if is_table(name))
    committed = sorted(name for name in os.listdir(RESULTS)
                       if is_table(name))
    assert written == committed
    changed = [name for name in written
               if (tmp_path / name).read_bytes()
               != (RESULTS / name).read_bytes()]
    assert not changed, (
        f"{changed} differ from benchmarks/results/; regenerate them only "
        "after a deliberate change (see this file's docstring)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        with tempfile.TemporaryDirectory() as scratch:
            done = regenerate(scratch)
            if done.returncode != 0:
                sys.exit(done.stdout + done.stderr)
            names = sorted(name for name in os.listdir(scratch)
                           if is_table(name))
            for name in names:
                shutil.copyfile(os.path.join(scratch, name), RESULTS / name)
        print(f"wrote {len(names)} tables to {RESULTS}")
    else:
        print(__doc__)
