"""Start-up contract: what importing the package and the CLI does to a process.

``import ch2exact`` loads no numpy, and ``ch2exact.cli`` pins numpy's
OpenBLAS to one thread before numpy starts, unless the caller chose a
count.  Each check runs in a fresh interpreter with OPENBLAS_NUM_THREADS
removed from its environment, on the same copy of the package as the
tests (the source tree or an installed one).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ch2exact

PACKAGE_ROOT = str(Path(ch2exact.__file__).resolve().parents[1])


def run_fresh(code, **env_overrides):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_startup_package_import_loads_no_numpy():
    assert run_fresh("import sys, ch2exact; print('numpy' in sys.modules)") == ["False"]


def test_startup_every_public_name_resolves():
    code = (
        "import ch2exact\n"
        "missing = [n for n in ch2exact.__all__ if getattr(ch2exact, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert set(ch2exact.__all__) <= set(dir(ch2exact))\n"
        "print(len(ch2exact.__all__))\n"
    )
    assert run_fresh(code) == [str(len(ch2exact.__all__))]
    with pytest.raises(AttributeError):
        ch2exact.no_such_name


def test_startup_cli_pins_one_blas_thread():
    code = (
        "import os, sys, ch2exact.cli\n"
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n"
    )
    assert run_fresh(code) == ["1", "1"]


def test_startup_cli_keeps_a_preset_thread_count():
    code = "import os, ch2exact.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh(code, OPENBLAS_NUM_THREADS="2") == ["2"]


def test_startup_library_import_leaves_threads_alone():
    code = "import os, numpy, ch2exact.emden; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_fresh(code) == ["None"]
