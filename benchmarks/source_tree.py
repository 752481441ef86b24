"""The greedyrat package under a --src directory, for the scripts here that
compare two source trees (trace_digest.py and hidden_poles.py).

``import_greedyrat(src)`` imports greedyrat from ``src``. When it imports
from anywhere but ``src`` (an installed copy, say, or a PYTHONPATH entry,
where ``src`` holds no package), the script exits with an error naming
both paths before any work.

``testsystems()`` is this tree's src/greedyrat/testsystems.py, loaded from
its file as a module of the package already imported, whose
DescriptorSystem then builds every system: an older checkout need not
have greedyrat.testsystems.
"""
import functools
import importlib.util
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def import_greedyrat(src):
    """Import greedyrat from src, or exit naming where it came from; returns src as an absolute path."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import greedyrat

    if not os.path.abspath(greedyrat.__file__).startswith(src + os.sep):
        sys.exit(f"imported greedyrat from {greedyrat.__file__}, not from --src {src}")
    return src


@functools.cache
def testsystems():
    """This tree's testsystems.py as a module of the greedyrat imported from --src."""
    path = os.path.join(SRC, "greedyrat", "testsystems.py")
    spec = importlib.util.spec_from_file_location("greedyrat.testsystems", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
