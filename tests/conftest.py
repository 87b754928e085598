import os
import pathlib
import subprocess
import sys
import threading

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


@pytest.fixture
def in_four_threads():
    """``_in_four_threads``, for the store tests of each module."""
    return _in_four_threads


def _in_four_threads(build):
    """[(size, entries), ...] from build(i, k) for k < 8 in threads i < 4."""
    start = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def run(i):
        start.wait()
        results[i].extend(build(i, k) for k in range(8))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(len(r) for r in results) == 32
    return [pair for r in results for pair in r]
