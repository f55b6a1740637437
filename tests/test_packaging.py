"""The package version has one source: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and points setuptools at
the package attribute.  The file is read as text, so the test runs on
Pythons without :mod:`tomllib`.
"""

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def _table(name: str) -> str:
    """Body of the ``[name]`` table of ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(rf"^\[{re.escape(name)}\][ \t]*$(.*?)(?=^\[|\Z)",
                      text, re.M | re.S)
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


class TestSingleSourcedVersion:
    def test_project_declares_no_static_version(self):
        project = _table("project")
        assert not re.search(r"^\s*version\s*=", project, re.M)
        assert re.search(r'^\s*dynamic\s*=\s*\[[^\]]*"version"', project,
                         re.M)

    def test_version_attr_is_the_package_version(self):
        dynamic = _table("tool.setuptools.dynamic")
        assert re.search(
            r'^\s*version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
            dynamic, re.M)

    def test_package_version_is_a_literal(self):
        # setuptools reads a literal assignment without importing the
        # package, which a build environment without numpy could not do
        init = (ROOT / "src" / "repro" / "__init__.py").read_text(
            encoding="utf-8")
        match = re.search(r'^__version__ = "([^"]+)"$', init, re.M)
        assert match and match.group(1) == repro.__version__


class TestDeclaredDependencies:
    def test_numeric_runtime_imports_are_declared(self):
        # CI installs what pyproject declares; the Hartree-Fock ERIs import
        # scipy.special.erf unconditionally
        project = _table("project")
        for name in ("numpy", "scipy"):
            assert re.search(rf'^dependencies\s*=.*"{name}[<>=~!]', project,
                             re.M), name
