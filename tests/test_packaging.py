"""The distribution that ``pyproject.toml`` declares: its name and version."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def test_distribution_is_mesahs_at_the_package_version():
    # `pip show mesahs` and importlib.metadata.version("mesahs") find the
    # install, and the version is written once, in mesahs.__version__
    with (ROOT / "pyproject.toml").open("rb") as fh:
        config = tomllib.load(fh)
    project = config["project"]
    assert project["name"] == "mesahs"
    assert "version" not in project
    assert project["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "mesahs.__version__"}
    assert project["scripts"] == {"mesahs": "mesahs.cli:main"}
