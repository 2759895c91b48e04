"""Setuptools shim for legacy editable installs.

All project metadata lives in pyproject.toml. This file enables the legacy
editable-install path on environments whose setuptools cannot build PEP 517
editable wheels.
"""

from setuptools import setup

setup()
