"""What a fresh interpreter loads: NumPy only for the runs and commands
that use arrays (the allocator modes and the linear analysis), and one
array module for each: `allocator` for an allocator run, `stability` for
`staballoc stability`. The package itself loads none of its modules: it
resolves only `allocator` and `stability` on first use, and every name the
benchmark's tracer looks up still resolves.

Each check runs in a subprocess, because the suite itself has NumPy loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY = """\
[scenario]
name = tiny
v0 = 15.0
horizon = 0.05
dt = 0.001

[driver]
steer = 0:0 0.02:0.05
"""


def python(*args, cwd=ROOT):
    """Run the interpreter with src and the repository root importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120)


def numpy_after(code):
    """Whether NumPy is loaded after the given code in a fresh process."""
    proc = python("-c", code + "\nimport sys\n"
                  "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def cli_imports(*argv, cwd):
    """(exit code, imported module names) of python -m staballoc argv."""
    proc = python("-X", "importtime", "-m", "staballoc", *argv, cwd=cwd)
    modules = {line.rsplit("|", 1)[1].strip()
               for line in proc.stderr.splitlines()
               if line.startswith("import time:") and line.count("|") == 2}
    return proc.returncode, modules


def run_code(controller):
    return ("from staballoc.harness import run_scenario\n"
            "from staballoc.scenario import parse_scenario\n"
            f"log = run_scenario(parse_scenario({TINY!r}), "
            f"controller={controller!r})\n"
            "assert len(log) == 50 and not log.diverged")


class TestNumpyStaysUnloaded:
    def test_package_and_cli_import(self):
        assert not numpy_after("import staballoc, staballoc.cli")

    def test_baseline_run(self):
        assert not numpy_after(run_code("baseline"))

    @pytest.mark.parametrize("controller", ["proposed", "hybrid"])
    def test_allocator_run_loads_it(self, controller):
        assert numpy_after(run_code(controller))

    def test_baseline_cli_run(self, tmp_path):
        scn = tmp_path / "tiny.scn"
        scn.write_text(TINY)
        code, modules = cli_imports("run", str(scn), "--controller",
                                    "baseline", "--out", str(tmp_path),
                                    cwd=tmp_path)
        assert code == 0 and (tmp_path / "tiny_baseline.csv").is_file()
        assert "staballoc.harness" in modules and "numpy" not in modules

    def test_help(self, tmp_path):
        code, modules = cli_imports("--help", cwd=tmp_path)
        assert code == 0
        assert "staballoc.cli" in modules and "numpy" not in modules

    def test_bad_scenario_exits_3(self, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text(TINY.replace("v0 = 15.0", "v0 = -1.0"))
        code, modules = cli_imports("run", str(scn), "--out", str(tmp_path),
                                    cwd=tmp_path)
        assert code == 3
        assert "staballoc.cli" in modules and "numpy" not in modules

    def test_nan_diagonal_is_not_invertible(self):
        assert not numpy_after(
            "import math\n"
            "from staballoc.controllers import bn_is_invertible\n"
            "assert bn_is_invertible((1.0,) * 12)\n"
            "assert not bn_is_invertible((math.nan,) + (1.0,) * 11)")

    def test_package_loads_no_module_and_resolves_the_array_ones(self):
        assert numpy_after("""if True:
            import sys
            import staballoc
            loaded = [m for m in sys.modules if m.startswith("staballoc.")]
            assert not loaded and "numpy" not in sys.modules, loaded
            for name in ("allocator", "stability"):
                module = getattr(staballoc, name)
                assert module is sys.modules[f"staballoc.{name}"], name
            for name in ("linmodel", "run_scenario", "AdaptiveAllocator",
                         "nothing"):
                assert not hasattr(staballoc, name), name
            """)


def test_each_array_command_loads_one_array_module(tmp_path):
    array_modules = {"staballoc.allocator", "staballoc.linmodel",
                     "staballoc.stability"}
    scn = tmp_path / "tiny.scn"
    scn.write_text(TINY)
    code, modules = cli_imports("run", str(scn), "--controller", "proposed",
                                "--out", str(tmp_path), cwd=tmp_path)
    assert code == 0 and (tmp_path / "tiny_proposed.csv").is_file()
    assert modules & array_modules == {"staballoc.allocator"}
    code, modules = cli_imports("stability", "--v0", "20", cwd=tmp_path)
    assert code == 0
    assert modules & array_modules == {"staballoc.stability"}


def test_tracer_bindings_resolve_on_a_fresh_import():
    # perfbench's tracer skips a binding it cannot find without a word, so
    # check that each one, and the allocator step, is there to install
    proc = python("-c", """if True:
        import json
        import staballoc
        from perfbench.tracing import (LAYER_BINDINGS, LayerTrace, Tracer,
                                       _resolve)
        import staballoc.cli, staballoc.harness
        missing = [f"{path}.{attr}" for _, path, attr in LAYER_BINDINGS
                   if attr not in getattr(_resolve(staballoc, path),
                                          "__dict__", {})]
        layers = LayerTrace(Tracer())
        layers.install(staballoc)
        layers.restore()
        print(json.dumps({
            "missing": missing, "installed": sorted(layers.installed),
            "names": sorted({name for name, _, _ in LAYER_BINDINGS})}))
        """)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["missing"] == []
    assert set(got["installed"]) >= {*got["names"], "allocator.step"}
