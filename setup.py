"""Packaging for the DSN 2022 attack-mitigation reproduction."""

import pathlib
import re

from setuptools import find_packages, setup

_HERE = pathlib.Path(__file__).parent
_README = _HERE / "README.md"


def _version() -> str:
    """Single-source the version from ``repro.__version__``."""
    text = (_HERE / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"$', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-inasim",
    version=_version(),
    description=(
        "Reproduction of 'Autonomous Attack Mitigation for Industrial "
        "Control Systems' (Mern et al., DSN 2022): the INASIM simulator, "
        "scenario registry, vectorized environments, and the ACSO "
        "defender stack"
    ),
    long_description=_README.read_text() if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22", "networkx"],
    extras_require={
        "tests": ["pytest>=7", "pytest-cov>=4"],
        "benchmarks": ["pytest>=7", "pytest-benchmark>=4"],
        # the version CI pins for the lint gate (see ruff.toml)
        "lint": ["ruff==0.8.6"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Intended Audience :: Science/Research",
        "Topic :: Security",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
