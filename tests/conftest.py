import os
import pathlib
import subprocess
import sys

import pytest

import loglegram
from loglegram import cli


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*args):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def cli_process():
    """Start the CLI as a user does, ``python -m loglegram.cli ARGS``.

    The child finds the same ``loglegram`` package this test run imported.
    Returns a function that takes the CLI arguments plus ``subprocess.Popen``
    keyword arguments and returns the started process.
    """
    package_root = str(pathlib.Path(loglegram.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)

    def start(*args, **popen_kwargs):
        command = [sys.executable, "-m", "loglegram.cli", *args]
        return subprocess.Popen(command, env=env, **popen_kwargs)

    return start
