"""greedyrat.testsystems: the seeded systems keep their bits, and no tool reads tests/
or measures a tree other than the one it is pointed at.

The digests were taken from the generators as they stood before they
moved here (tests/conftest.py, tests/test_descriptor.py and
system_model.make_synthetic). The generators use no BLAS, so the same
numpy and scipy give the same bits on any host. The generators return
DescriptorSystem, so each digest is of the operands as DescriptorSystem
stores them: a change to how it converts or copies them (dtype, CSC
form) fails here too, with no generator changed.
"""
import ast
import hashlib
import os
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from greedyrat import DescriptorSystem
from greedyrat.testsystems import (
    densified,
    long_range,
    make_synthetic,
    mass_0_port,
    rlc_line,
    spring_chain,
    triangular_system,
)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

PINNED = {
    "rlc_line": (rlc_line, "1b2603424287695cdffb828225159e4b3da609ca994a4194c59fbe4d394df1c6"),
    "spring_chain": (spring_chain, "b63324982540bf683041d81fb267f77bd50da5ce4422d2b91beb1e244f5cc417"),
    "long_range-rlc_line": (
        lambda: long_range(rlc_line()),
        "41cdff09c933073923a7cf68dd7e5da42aef7aba2e20a6fb3bbd5926c924bdc6",
    ),
    "long_range-spring_chain": (
        lambda: long_range(spring_chain()),
        "fd281a4080690af25cdca6bf1722a8b53baaf992bc768cbf7881b4dba5ee47da",
    ),
    "densified-rlc_line": (
        lambda: densified(rlc_line()),
        "b30d07e768d67a17b920bb83547ff577f2ccde64f0f328c05ae87d67fd106e4a",
    ),
    "densified-spring_chain": (
        lambda: densified(spring_chain()),
        "e49ad4b4ee5601f74628ddf008efdcbea8ab9c073b3320ae2b952ee590609dc5",
    ),
    "mass_0_port": (
        lambda: mass_0_port(spring_chain()),
        "19824fb532ba31dc45464fd387d17a8676f0fcceb1bfce69473042b1a9dad8c2",
    ),
    "triangular-tridiagonal": (
        lambda: triangular_system(200, False, "tridiagonal"),
        "d763ed83d2d1b2f75f131009c5ee7c9ae683cb0ba24d91c882593a08e3360624",
    ),
    "triangular-banded": (
        lambda: triangular_system(200, False, "banded"),
        "270c8204baabce55ffc583a1d911b74a402b620b1541180eca77962d04588fbd",
    ),
    "triangular-sparse": (
        lambda: triangular_system(200, True, "sparse"),
        "259dab4409d248258cd27f3e718ab2338ac062e3f42a1f6d2f55fc9d5d73e516",
    ),
    "triangular-dense": (
        lambda: triangular_system(200, True, "dense"),
        "0ff8518a04d3e2b5f38628c19562704024bad2edd78a20dce92f657210df4749",
    ),
    "8-pole": (
        lambda: make_synthetic(1j * np.array([2, 5, 11, 19, 37, 53, 71, 90.0]), 1, m=2, p=2),
        "534a5ca566bbb56b20d67c0cc301e7c1074df2de7d88cc45856d66d09daea169",
    ),
}


def operands(system):
    """The arrays of E, A, B and C: a sparse operand's indptr, indices and data."""
    for M in (system.E, system.A, system.B, system.C):
        yield from (M.indptr, M.indices, M.data) if sp.issparse(M) else (M,)


def operand_digest(system):
    """sha256 over the shape, dtype and bytes of each of the system's arrays."""
    h = hashlib.sha256()
    for part in operands(system):
        h.update(f"{part.shape} {part.dtype.str}".encode())
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(PINNED))
def test_each_generator_keeps_its_bits(case):
    make, digest = PINNED[case]
    assert operand_digest(make()) == digest


# the end-to-end benchmark's systems, by ratbench/systems.py's names
AT_BENCH_SIZE = {
    "chain": lambda seed: spring_chain(masses=1500, seed=seed),
    "line": lambda seed: rlc_line(sections=25_000, seed=seed, ports=(0, 20)),
}


@pytest.mark.parametrize("name,seed", [("chain", 0), ("chain", 1), ("line", 0)])
def test_the_benchmark_systems_are_the_generators_at_their_sizes(name, seed):
    # run from its file, not imported: ratbench is not a package, and
    # run_path writes no bytecode beside it
    generators = runpy.run_path(os.path.join(ROOT, "ratbench", "systems.py"))["GENERATORS"]
    bench = DescriptorSystem(*generators[name](seed))
    ours = AT_BENCH_SIZE[name](seed)
    for x, y in zip(operands(bench), operands(ours), strict=True):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def is_test_module(name):
    top = name.split(".")[0]
    return top == "conftest" or top.startswith("test_")


def reads_from_tests(path):
    """The lines where a script imports a test module or names the tests/ directory."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(is_test_module(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = is_test_module(node.module or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a path part, as in os.path.join(ROOT, "tests") or "../tests/x.py"
            hit = "tests" in re.split(r"[/\\]", node.value)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_tool_reads_from_the_tests():
    # benchmarks/ and scripts/ take their systems from greedyrat.testsystems:
    # no sys.path entry into tests/, and no conftest or test_* import
    offending = {}
    for folder in ("benchmarks", "scripts"):
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py"):
                lines = reads_from_tests(os.path.join(ROOT, folder, name))
                if lines:
                    offending[f"{folder}/{name}"] = lines
    assert offending == {}


@pytest.mark.parametrize("tool, args", [("hidden_poles.py", ["--paths", "tridiagonal"]), ("trace_digest.py", [])])
def test_a_tool_refuses_a_src_that_holds_no_package(tmp_path, tool, args):
    # this tree's src on PYTHONPATH would otherwise stand in for the empty --src
    src = os.path.abspath(os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", tool), "--src", str(tmp_path), *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert os.path.join(src, "greedyrat") in proc.stderr and str(tmp_path) in proc.stderr
