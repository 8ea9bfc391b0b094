"""Importing the package keeps BLAS single-threaded unless the user says
otherwise.  Each case runs a fresh interpreter, because the thread pool is
sized once, when numpy first loads."""

import os
import subprocess
import sys

import pytest

from tests.conftest import src_env

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_IMPORT = ("import os, sde_rtm, numpy; "
           "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="counts threads through /proc/self/task")


def _import_package(**extra):
    env = {key: value for key, value in src_env().items() if key not in _BLAS_VARIABLES}
    done = subprocess.run([sys.executable, "-c", _IMPORT], env={**env, **extra},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    threads, setting = done.stdout.split()
    return int(threads), setting


def test_import_starts_no_blas_thread():
    assert _import_package() == (1, "1")


@pytest.mark.parametrize("variable", _BLAS_VARIABLES)
def test_user_blas_setting_wins(variable):
    # OpenBLAS takes its thread count from any of the three, so a user who
    # set one gets no OPENBLAS_NUM_THREADS that would override it
    setting = _import_package(**{variable: "2"})[1]
    assert setting == ("2" if variable == "OPENBLAS_NUM_THREADS" else "None")
