"""Shared material cards, the anisotropy measure, the memo reset, and
the acceptance-line echo.

Two reference systems: a structural panel resin (percolated at 1%
filler) and the dog-bone coupon material used for the resistance
validation.  Acceptance tests append their `[accept NN]` lines to
`acceptance_lines`; the terminal-summary hook echoes them after the run.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import piezofrac
from piezofrac import tensors
from piezofrac.materials import preset

acceptance_lines = []


@pytest.fixture(scope="session")
def panel():
    return preset("mwcnt_epoxy")


@pytest.fixture(scope="session")
def dogbone():
    return preset("dwcnt_epoxy")


def anisotropy(C):
    """Relative distance ||C - C_iso||_F / ||C||_F of the 6x6 stiffness C
    from its isotropic part C_iso (`tensors.isotropic_projection`)."""
    C_iso = tensors.isotropic_projection(C, 1)
    # frame-invariant (Kelvin) norm: weight shear rows/columns by sqrt(2)
    k = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
    w = np.outer(k, k)
    nrm = np.linalg.norm(C * w)
    return np.linalg.norm((C - C_iso) * w) / nrm if nrm > 0.0 else 0.0


def clear_caches():
    """Empty every memo of the package: each module-level name of a
    `piezofrac` module that has a `cache_clear`, so a cold-cache test
    also reaches a memo added later."""
    for info in pkgutil.iter_modules(piezofrac.__path__):
        module = importlib.import_module(f"piezofrac.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
