"""Packaging metadata: the distribution version is the package version."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_version_is_the_package_version():
    pytest.importorskip("setuptools")
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"], cwd=REPO_ROOT,
        capture_output=True, text=True, check=True)
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
