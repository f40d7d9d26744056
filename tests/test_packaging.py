"""The installable package declares what it imports and ships its CLI.

``pyproject.toml`` is the one place packaging metadata lives; its
version must equal ``repro.__version__`` (which feeds every cache
fingerprint), and the console script the README documents must resolve
to a callable.
"""

import importlib
import re
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

REPO_ROOT = Path(__file__).resolve().parent.parent


def _project() -> dict:
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_matches_package():
    assert _project()["version"] == repro.__version__


def test_runtime_dependencies_declared():
    names = {
        re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0]
        for dep in _project()["dependencies"]
    }
    assert {"numpy", "scipy"} <= names


def test_console_script_resolves_to_callable():
    target = _project()["scripts"]["repro-lppm"]
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
