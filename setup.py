"""Packaging for ``repro`` (src layout).

Declares the ``repro`` package, its one runtime dependency and the
``repro-ants`` command for ``pip install .``.  Running from a checkout
needs no install: ``PYTHONPATH=src python -m repro``.

NumPy 2.0 is the floor: the random-walk kernel counts steps with
``np.bitwise_count``, which NumPy 1.x lacks.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-ants",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy>=2.0"],
    entry_points={"console_scripts": ["repro-ants = repro.cli:main"]},
)
