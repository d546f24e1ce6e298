"""The package has one version: ``pyproject.toml`` declares it and
``repro.__version__`` reads it from there."""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")


def test_package_version_is_the_pyproject_version():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert repro.__version__ == declared
