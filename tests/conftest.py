import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfchub
from qfchub import TuningConstraints, builtin_materials


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child that runs the package under test.

    It is ``env`` (default ``os.environ``) with the absolute directory of the
    qfchub this process imported at the front of PYTHONPATH. A relative entry
    such as ``src`` would resolve against the child's cwd and fail to import
    qfchub, or import another copy of it.
    """
    package_root = str(Path(qfchub.__file__).resolve().parent.parent)

    def make(env=None):
        env = dict(os.environ if env is None else env)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_root + (os.pathsep + path if path else "")
        return env
    return make


@pytest.fixture(scope="session")
def run_python(child_env):
    """Run ``python ARGS`` in ``cwd`` against the package under test, in
    ``child_env(env)``. A child that runs past 120 s fails the test instead of
    stalling the suite.
    """
    def run(args, cwd, env=None):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              cwd=cwd, env=child_env(env), timeout=120)
    return run


@pytest.fixture(scope="session")
def start_cli(child_env):
    """Start ``python -m qfchub ARGS`` in ``cwd`` as ``run_cli`` runs it, with
    the standard streams given as ``subprocess.Popen`` takes them."""
    def start(args, cwd, **streams):
        return subprocess.Popen([sys.executable, "-m", "qfchub", *args], cwd=cwd,
                                env=child_env(), **streams)
    return start


@pytest.fixture(scope="session")
def run_cli(run_python):
    """Run ``python -m qfchub ARGS`` in ``cwd``, as ``run_python`` does."""
    def run(args, cwd, env=None):
        return run_python(["-m", "qfchub", *args], cwd, env)
    return run


@pytest.fixture(scope="session")
def materials():
    return builtin_materials()


@pytest.fixture(scope="session")
def jundt(materials):
    return materials["jundt1997"]


@pytest.fixture(scope="session")
def zelmon(materials):
    return materials["zelmon1997"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def cutoff_1550():
    return TuningConstraints(constraint_mode="max_converted_wavelength",
                             constraint_value_nm=1550.0)


@pytest.fixture
def separation_20():
    return TuningConstraints(constraint_mode="min_pump_converted_separation",
                             constraint_value_nm=20.0)
