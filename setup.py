"""Package metadata for ``repro`` (the sources under ``src/``).

This is the project's only packaging file: ``pip install -e .`` installs
the ``repro`` package from it, including in offline environments whose
setuptools cannot build PEP-517 editable wheels.  Running from a
checkout needs no install (``PYTHONPATH=src``).  The runtime needs only
the standard library; the tests also use pytest, hypothesis and numpy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Parallel Error Detection Using Heterogeneous "
        "Cores' (Ainsworth & Jones, DSN 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
