"""Packaging for the DATE-2017 wave-pipelining reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so ``pip install
-e .`` works without the ``wheel``/``build`` packages in minimal
containers.  The packed wave-simulation engine's step loop
(:mod:`repro.core.wavepipe.kernels`) is plain numpy, so numpy and
networkx are the only runtime requirements.
"""

from setuptools import find_packages, setup

setup(
    name="repro-wave-pipelining",
    version="0.1.0",
    description=(
        "Reproduction of 'Wave pipelining for majority-based "
        "beyond-CMOS technologies' (DATE 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "networkx",
    ],
    entry_points={
        "console_scripts": ["repro = repro.cli:main"],
    },
)
