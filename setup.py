"""Package metadata and the ``repro-fbb`` console script.

Kept as a plain setup.py (no pyproject.toml build system) so that
``pip install -e .`` also works offline without the ``wheel`` package:
pip falls back to ``setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-fbb",
    version="1.0.0",
    description=("Physically clustered forward body biasing for "
                 "variability compensation (DATE 2009) — reproduction"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro-fbb = repro.cli:main"]},
)
