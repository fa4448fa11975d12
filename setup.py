"""Setuptools entry point.

Install with ``pip install -e .`` (or ``pip install -e . --no-build-isolation
--no-use-pep517`` in offline environments whose setuptools/pip predate PEP 660
editable wheels).  The package needs NumPy only.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="3.0.0",
    description=(
        "Reproduction of DOSA: Differentiable Model-Based One-Loop Search "
        "for DNN Accelerators (MICRO 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
