"""What importing greedyrat loads: the Matrix Market reader and the fork
machinery only once a process reads a .mtx file or maps points in a child."""
import json
import os
import subprocess
import sys

import greedyrat
from greedyrat.testsystems import make_synthetic

# numpy and the scipy modules greedyrat needs at import are loaded first, so
# the check sees only what greedyrat itself adds, whatever a scipy imports
CHILD = """
import json, os, sys
import numpy, scipy.linalg, scipy.sparse, scipy.sparse.csgraph

def loaded(names=("scipy.io", "multiprocessing")):
    return [name for name in names if name in sys.modules]

before = set(sys.modules)
import greedyrat, greedyrat.cli
seen = {"import": sorted(set(sys.modules) - before)}
greedyrat.load_matrix_market(sys.argv[1])
seen["read"] = loaded()
from greedyrat import parallel
parallel.usable_cpus = lambda: 2
seen["pids"] = len(set(parallel.map_points(lambda z: os.getpid(), [1j, 2j])))
seen["mapped"] = loaded()
print(json.dumps(seen))
"""


def test_only_a_matrix_file_read_and_a_forked_map_load_scipy_io_and_multiprocessing(tmp_path):
    prefix = str(tmp_path / "sys")
    make_synthetic([2j, 8j], 0, m=1, p=1).save_matrix_market(prefix)
    src = os.path.dirname(os.path.dirname(os.path.abspath(greedyrat.__file__)))
    # one BLAS thread, so that the process runs no other thread and may fork
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, prefix], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    added = seen["import"]
    assert "greedyrat.cli" in added
    assert [m for m in added if m == "multiprocessing" or m.startswith(("multiprocessing.", "scipy.io"))] == []
    assert "scipy.io" in seen["read"]
    assert seen["pids"] == 2  # the second point was mapped in a forked child
    assert seen["mapped"] == ["scipy.io", "multiprocessing"]
