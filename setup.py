"""Packaging metadata for the ``repro`` library (``src/`` layout).

This file is the only packaging metadata; there is no ``pyproject.toml``.
Install in development mode with ``pip install -e .``.  Where the
``wheel`` package is missing (pip then cannot build the editable wheel,
and refuses ``--no-use-pep517`` too), use setuptools directly:

    python setup.py develop --no-deps
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Bit-true reproduction of 'An optimal architecture for a DDC' "
        "(six DDC architectures, Tables 1-7, duty-cycle winner analysis)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
