"""Start-up contract: what importing the package and the CLI does to a process.

``import ch2exact`` loads no numpy, and ``ch2exact.cli`` pins numpy's
OpenBLAS to one thread before numpy starts, unless the caller chose a
count.  The entry point ``cli.run`` freezes the collector's heap when
``main()`` returns or raises (argparse's ``SystemExit`` included), so that
finalization skips it; ``main()`` leaves the collector alone.  The CLI
imports only public library names.  Every check but the last two runs a
fresh interpreter with OPENBLAS_NUM_THREADS removed from its environment,
on the same copy of the package as the tests (the source tree or an
installed one).
"""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ch2exact
from ch2exact import cli

PACKAGE_ROOT = str(Path(ch2exact.__file__).resolve().parents[1])
CONFIG_2A = str(Path(__file__).resolve().parents[1] / "configs" / "families" / "2a.cfg")


def fresh(*args, **env_overrides):
    """subprocess.run of ``python *args`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run_fresh(code, **env_overrides):
    proc = fresh("-c", code, **env_overrides)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_startup_package_import_loads_no_numpy():
    assert run_fresh("import sys, ch2exact; print('numpy' in sys.modules)") == ["False"]


def test_startup_every_public_name_resolves():
    # The package's lazy names, and every name in each ch2exact.* module's
    # __all__, so that ``from ch2exact.<module> import *`` cannot fail on a
    # name left behind in an export list.
    code = (
        "import importlib, pkgutil, ch2exact\n"
        "missing = [n for n in ch2exact.__all__ if getattr(ch2exact, n, None) is None]\n"
        "exporting = []\n"
        "for info in pkgutil.iter_modules(ch2exact.__path__):\n"
        "    module = importlib.import_module(f'ch2exact.{info.name}')\n"
        "    if hasattr(module, '__all__'):\n"
        "        exporting.append(info.name)\n"
        "        missing += [f'{info.name}.{n}' for n in module.__all__ if not hasattr(module, n)]\n"
        "assert not missing, missing\n"
        "assert set(ch2exact.__all__) <= set(dir(ch2exact))\n"
        "print(len(ch2exact.__all__), ','.join(exporting))\n"
    )
    assert run_fresh(code) == [str(len(ch2exact.__all__)), "emden,selfsim,serialize,verify"]
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


def test_startup_module_entry_writes_what_main_writes(tmp_path):
    proc = fresh("-m", "ch2exact.cli", "verify", "--config", CONFIG_2A,
                 "--out", str(tmp_path / "fresh"))
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["verify", "--config", CONFIG_2A, "--out", str(tmp_path / "main")]) == 0
    fresh_bytes = (tmp_path / "fresh" / "verify.json").read_bytes()
    assert fresh_bytes == (tmp_path / "main" / "verify.json").read_bytes()


def test_startup_run_freezes_the_heap_before_atexit_handlers(tmp_path):
    cfg = tmp_path / "collapse.cfg"
    cfg.write_text("xi = -3\na0 = 1\na1 = 0\n")
    # A run, a usage error (argparse raises SystemExit(1) inside main())
    # and --help (SystemExit(0)).
    for argv, code in ((["emden", "--config", str(cfg), "--out", str(tmp_path)], 0),
                       (["verify"], 1),
                       (["--help"], 0)):
        proc = fresh("-c", (
            "import atexit, gc, sys\n"
            "from ch2exact import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv = {['ch2exact', *argv]!r}\n"
            "cli.run()\n"
        ))
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "frozen True", argv
    assert (tmp_path / "emden.json").exists()


def test_startup_module_entry_exit_codes(tmp_path):
    proc = fresh("-m", "ch2exact.cli", "verify", "--config", CONFIG_2A,
                 "--out", str(tmp_path), "--seed-corrupt", "u=1.01")
    assert proc.returncode == 3, proc.stderr
    assert json.loads((tmp_path / "verify.json").read_text())["pass"] is False
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("sigma = 1\nxi = 1\nalpha = 1\na0 = 1\na1 = nan\n")
    proc = fresh("-m", "ch2exact.cli", "verify", "--config", str(malformed),
                 "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == "invalid input: config key 'a1' must be finite: 'nan'\n"
    assert not (tmp_path / "out").exists()


def test_startup_main_in_process_leaves_the_collector_alone(tmp_path):
    assert gc.get_freeze_count() == 0
    cfg = tmp_path / "collapse.cfg"
    cfg.write_text("xi = -3\na0 = 1\na1 = 0\n")
    assert cli.main(["emden", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def test_startup_cli_imports_only_public_library_names():
    # The CLI parses, calls the library and serializes: every window and
    # check it relies on is a public library name, not a private helper.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
