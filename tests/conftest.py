"""Shared fixtures: reference paths, plant instances and symbolic oracles."""

import numpy as np
import pytest

from splinefollow import curves, dynamics


@pytest.fixture(scope="session")
def wavy_path():
    """Open 15-waypoint planar path inside the 3R workspace."""
    s = np.linspace(0.0, 1.0, 15)
    wp = np.column_stack(
        [0.8 + 1.4 * s, 0.6 * np.sin(2.5 * np.pi * s) + 0.2 * s]
    )
    return curves.fit_spline(wp, closed=False)


@pytest.fixture(scope="session")
def fig8_path():
    """Closed figure-eight with a self-intersection at (1.5, 0.3)."""
    t = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    wp = np.column_stack(
        [1.5 + np.sin(t), 0.3 + 0.9 * np.sin(t) * np.cos(t)]
    )
    return curves.fit_spline(wp, closed=True)


@pytest.fixture(scope="session")
def twisted_path():
    """Closed 3-D loop for the 4-DOF arm (nowhere planar)."""
    t = np.linspace(0.0, 2.0 * np.pi, 16)[:-1]
    theta = 0.9 * np.sin(t)
    r = 0.75 + 0.10 * np.cos(2.0 * t)
    z = 0.55 + 0.15 * np.sin(2.0 * t)
    wp = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return curves.fit_spline(wp, closed=True)


@pytest.fixture(scope="session")
def example1():
    return dynamics.make_example1()


@pytest.fixture(scope="session")
def example2():
    return dynamics.make_example2()


@pytest.fixture(scope="session")
def cpm4():
    return dynamics.make_cpm_like()


# plant name -> its derivation in ``splinefollow.symbolic``
SYMBOLIC = {"example2": "planar3r", "cpm4": "cpm"}


@pytest.fixture(scope="session")
def symbolic_oracle():
    """``symbolic_oracle(system, what)``: float function of q, qd.

    ``what`` is "christoffel" (the (N, N) matrix C, C qd the Coriolis
    and centrifugal forces) or "energy" (qd^T D qd / 2), compiled from
    the plant's sympy derivation apart from its generated code.  The
    constant-matrix example1 has C = 0.  Skips without sympy.
    """
    def oracle(system, what):
        if system.name == "example1":
            return lambda q, qd: np.zeros((2, 2))
        pytest.importorskip("sympy", reason="the symbolic oracles need sympy")
        from splinefollow import symbolic

        return symbolic.oracle(SYMBOLIC[system.name], what)

    return oracle
