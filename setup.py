import re
from pathlib import Path

from setuptools import find_packages, setup

# the version lives in one place: the package's __version__
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro-gals",
    version=VERSION,
    description=(
        "Reproduction of 'Power and Performance Evaluation of Globally "
        "Asynchronous Locally Synchronous Processors' "
        "(Iyer & Marculescu, ISCA 2002)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
