"""The compiled kernel's loader, run in fresh processes on a copy of the
package, so that each test starts from a cache it controls."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import randspec

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")

_COUNTS_EQUAL_DENSE = """
import numpy as np
from randspec import _native, sturm_counts
rng = np.random.default_rng(5)
diag, off = rng.normal(size=(40, 30)), rng.normal(size=29)
shifts = np.linspace(-4, 4, 9)[:, None]
got = sturm_counts(diag, off, shifts)
for row in range(40):
    eigs = np.linalg.eigvalsh(np.diag(diag[row]) + np.diag(off, 1) + np.diag(off, -1))
    assert got[:, row].tolist() == np.searchsorted(eigs, shifts[:, 0]).tolist()
print(_native.kernel() is not None)
"""


def _package_copy(tmp_path):
    """A copy of the package source with an empty cache."""
    src = Path(randspec.__file__).parent
    shutil.copytree(src, tmp_path / "randspec", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _python(root, code, path=None):
    env = dict(os.environ, PYTHONPATH=str(root))
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.strip()


def _libraries(root):
    return sorted((root / "randspec" / "__pycache__").glob("_sturm-*"))


def test_no_compiler_falls_back_to_numpy(tmp_path):
    root = _package_copy(tmp_path / "pkg")
    empty = tmp_path / "bin"
    empty.mkdir()
    assert _finish(_python(root, _COUNTS_EQUAL_DENSE, path=str(empty))) == "False"
    assert _libraries(root) == []


@needs_cc
def test_warm_cache_spawns_no_compiler(tmp_path):
    root = _package_copy(tmp_path)
    assert _finish(_python(root, _COUNTS_EQUAL_DENSE)) == "True"
    [library] = _libraries(root)
    built = library.stat().st_mtime_ns
    code = """
import subprocess
def refuse(*args, **kwargs):
    raise AssertionError("spawned " + repr(args))
subprocess.Popen = subprocess.run = refuse
import numpy as np
import randspec.cli
from randspec import _native, sturm_counts
assert sturm_counts(np.zeros(3), np.ones(2), 0.5).tolist() == 2
print(_native.kernel() is not None)
"""
    assert _finish(_python(root, code)) == "True"
    assert _libraries(root) == [library] and library.stat().st_mtime_ns == built


@needs_cc
def test_concurrent_builds_into_a_cold_cache(tmp_path):
    root = _package_copy(tmp_path)
    procs = [_python(root, _COUNTS_EQUAL_DENSE) for _ in range(2)]
    assert [_finish(p) for p in procs] == ["True", "True"]
    [library] = _libraries(root)  # no temporary file is left behind
    assert library.name.endswith(".so")
    assert _finish(_python(root, _COUNTS_EQUAL_DENSE)) == "True"
