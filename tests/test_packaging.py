"""Packaging: a built dravlid carries every data file the package reads.

The tests import dravlid from the source tree, so a data file that
pyproject.toml's package-data globs miss would only fail an installed copy.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dravlid"


def test_every_data_file_matches_a_package_data_pattern():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    with (ROOT / "pyproject.toml").open("rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["dravlid"]
    # setuptools globs each pattern from the package directory.
    shipped = {path for pattern in patterns for path in PACKAGE.glob(pattern)}
    data = {
        path for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix != ".py"
        and "__pycache__" not in path.relative_to(PACKAGE).parts
    }
    assert data, f"no data files under {PACKAGE}"
    assert sorted(path.relative_to(PACKAGE).as_posix() for path in data - shipped) == []
