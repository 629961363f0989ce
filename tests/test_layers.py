"""The control period's generated calls against their public pieces.

``transform.linearize`` runs the frame, the drift solve and the
linearization as one generated call.  After the projection a period
makes one call (``control._period``), which runs those and then the
tangential loop, the transversal law, the bias, the resolution and the
clamp.  ``oracles.linearize_pieces`` and ``oracles.command_pieces`` call
the public pieces one after another instead (``oracles.period_pieces``
both).  On seeded random states both give the same floats, bit for bit
(compared through ``repr``), and the same typed errors with the same
messages and fields.  The drift solve on J's p rows is checked apart,
against the solve on N + 1 right-hand sides with J applied after.
"""

import dataclasses

import numpy as np
import pytest

from splinefollow import control, curves, dynamics, frames, projection, transform
from splinefollow.errors import SplineFollowError
import oracles
import test_dynamics
from test_frames import _circle_nan_at

STATES = 12   # seeded random states per case

_with_inertia = test_dynamics.TestInertiaSolve._with_inertia


def _planar_circle_3d():
    """A circle in the plane z = 0.5 of R^3: no torsion, so no Frenet frame."""
    seg = curves.HarmonicSegment((("cos", "c"), ("sin", "c"), ("c",)),
                                 (0.3, 0.5, 0.3, 0.0, 0.5), 1.0, (0.0, 6.0))
    return curves.SplinePath([seg])


# (plant, path, frame policy) of every frame mode each plant's p admits
CASES = {
    "example1-frenet": ("example1", lambda p: curves.line_path([-5.0], [5.0]),
                        frames.FRENET),
    "example1-line": ("example1", lambda p: curves.line_path([-5.0], [5.0]),
                      frames.FramePolicy("line_fallback")),
    "example2-frenet": ("example2", lambda p: p["fig8"], frames.FRENET),
    "example2-planar": ("example2", lambda p: p["fig8"],
                        frames.FramePolicy("planar_fallback")),
    "example2-line": ("example2", lambda p: p["fig8"],
                      frames.FramePolicy("line_fallback", ((0.3, 1.0),))),
    "cpm4-frenet": ("cpm4", lambda p: p["twisted"], frames.FRENET),
    "cpm4-planar": ("cpm4", lambda p: _planar_circle_3d(),
                    frames.FramePolicy("planar_fallback", ((0.0, 0.0, 2.0),))),
    "cpm4-line": ("cpm4", lambda p: p["twisted"],
                  frames.FramePolicy("line_fallback", ((0.0, 0.0, 1.0), (1.0, 0.2, 0.0)))),
}


@pytest.fixture(params=CASES)
def case(request, fig8_path, twisted_path):
    name, path, policy = CASES[request.param]
    system = dynamics.make_plant(name)
    return system, path({"fig8": fig8_path, "twisted": twisted_path}), policy


def _states(system, path, seed):
    """Seeded random (q, qd, projection state) inside the default limits."""
    rng = np.random.default_rng(seed)
    lim = system.default_limits
    for _ in range(STATES):
        k = int(rng.integers(path.n_segments))
        lo, hi = path.segments[k].domain
        yield (rng.uniform(0.8 * lim.q_min, 0.8 * lim.q_max).tolist(),
               rng.normal(size=system.N).tolist(),
               projection.ProjectionState(k, float(rng.uniform(lo, hi))))


def test_transform_layer_is_its_pieces(case):
    """linearize's record is frame_jet + drift_and_input + the
    linearization, bit for bit."""
    system, path, policy = case
    for q, qd, ps in _states(system, path, 2510):
        want = oracles.linearize_pieces(system, q, qd, path, ps, policy)
        assert repr(transform.linearize(system, q, qd, path, ps, policy)) == repr(want)


def _gains(p):
    """Gains of both tangential modes, the reference table and, for p > 1,
    the robust transversal law."""
    m = p - 1
    pd = dict(xi_Kp=(150.0, 90.0), xi_Kd=(30.0, 20.0))
    out = [
        control.OuterLoopGains(K_P=5.0, K_I=2.0, eta2_ref=0.2,
                               integral_limit=0.05, **pd),
        control.OuterLoopGains(K_P=3.0, K_I=1.0, integral_limit=0.5,
                               eta2_ref_table=((0.0, 0.0), (1.0, 0.3)), **pd),
        control.OuterLoopGains(tangential_mode="position", K_P=20.0, K_D=9.0,
                               eta1_ref=0.5, **pd),
    ]
    if m:   # mu = 0.05 and 1e3: outside and inside the boundary layer
        K = np.kron(np.eye(m), [[-40.0, -13.0]])
        out += [control.OuterLoopGains(
            K_P=5.0, K_I=2.0, transversal_mode="robust", robust_mu=mu,
            robust_K=K.tolist(), robust_K0=(0.1 * K).tolist(),
            robust_K2=(2.0 * K).tolist()) for mu in (0.05, 1e3)]
    return out


def _redundancies(N, rng):
    A = rng.normal(size=(N, N))
    W = A @ A.T + N * np.eye(N)   # symmetric positive definite
    return [control.RedundancyConfig(bias_mode=b, W=w)
            for b in ("joint_limit", "zero") for w in (None, W)]


def _period(system, path, q, qd, ps, *rest):
    """control._period with the plant's kinematics call at (q, qd)."""
    return control._period(system, path, q, qd, ps, system.kinematics(q, qd), *rest)


def test_period_call_is_its_pieces(case):
    """The period's call after the projection gives (lin, u, u_unclamped,
    v, integral) of linearize_pieces and then command_pieces (tangential_v,
    transversal_v, bias_r, resolve_input and the clamp), bit for bit, for
    both tangential modes, PD or robust on both sides of the boundary
    layer, both bias modes, W or not, clamped or not."""
    system, path, policy = case
    rng = np.random.default_rng(2511)
    lim = system.default_limits
    narrow = dynamics.Limits(lim.q_min, lim.q_max, 0.02 * lim.u_min, 0.02 * lim.u_max)
    clamped = 0
    for q, qd, ps in _states(system, path, 2512):
        for gains in _gains(system.p):
            for red in _redundancies(system.N, rng):
                for limits in (lim, narrow):
                    args = (q, qd, ps, float(rng.uniform(-0.1, 0.1)), gains, red,
                            limits, policy, 0.01, float(rng.uniform(0.0, 2.0)))
                    got = _period(system, path, *args)
                    assert repr(got) == repr(oracles.period_pieces(system, path, *args))
                    clamped += got[1] != got[2]
    assert clamped


# largest differences over 400 seeded states per case and input matrix,
# times ten
ALPHA_RTOL = 6e-14   # of 1 + max |alpha| (measured 6.0e-15, cpm4-frenet)
BETA_RTOL = 2.2e-14  # of max |beta| (measured 2.2e-15, example2, triangular A)


@pytest.mark.parametrize("input_matrix", ["plant", "triangular"])
def test_output_solve_is_the_full_solve(case, input_matrix):
    """The period's alpha and beta, from X = D^-1 J^T on p right-hand
    sides, match J f_v and J g_v from ``dynamics.drift_and_input`` (f_v
    and every column of D^-1 A) to round-off, with the plant's diagonal A
    and with an A of ones on, halves above and zeros below the diagonal;
    eta, xi and zeta do not read the solve, so they are the same floats."""
    system, path, policy = case
    if input_matrix == "triangular":
        N = system.N
        system = dataclasses.replace(system, A=np.eye(N) + np.triu(np.full((N, N), 0.5), 1))
    for q, qd, ps in _states(system, path, 2513):
        got = _period(system, path, q, qd, ps, 0.0, control.OuterLoopGains(),
                      control.RedundancyConfig(), system.default_limits, policy,
                      0.01, 0.0)[0]
        want = oracles.linearize_pieces(system, q, qd, path, ps, policy, full_solve=True)
        assert repr((got.eta, got.xi, got.zeta)) == repr((want.eta, want.xi, want.zeta))
        a, b = np.array(want.alpha), np.array(want.beta)
        assert np.abs(np.array(got.alpha) - a).max() <= ALPHA_RTOL * (1.0 + np.abs(a).max())
        assert np.abs(np.array(got.beta) - b).max() <= BETA_RTOL * np.abs(b).max()


def test_robust_switch_is_lazy_at_zero():
    """At xi = 0 exactly the recorded robust law takes the boundary-layer
    branch and divides by no ||xi||, as the float law does."""
    system = dynamics.make_example2()
    path = curves.line_path([0.0, 0.0], [4.0, 0.0])
    policy = frames.FramePolicy("line_fallback", ((0.0, 1.0),))
    gains = _gains(2)[-2]
    args = ([0.0, 0.5, -1.0], [0.0] * 3, projection.ProjectionState(0, 0.3), 0.0,
            gains, control.RedundancyConfig(), system.default_limits, policy, 0.01, 0.0)
    got = _period(system, path, *args)
    assert got[0].xi == [[0.0], [0.0]] and got[3][1] == 0.0
    assert repr(got) == repr(oracles.period_pieces(system, path, *args))


def _raised(call):
    """(type, message, fields) of the library error ``call`` raises."""
    with pytest.raises(SplineFollowError) as exc:
        call()
    assert exc.value.time is None
    return type(exc.value), str(exc.value), repr(vars(exc.value))


Q1, QD1 = [0.1, 0.2], [0.3, -0.4]
Q2, QD2 = [0.1, 1.2, -0.7], [0.3, -0.4, 0.2]
Q3, QD3 = [0.1, 0.5, 0.6, -0.4], [0.3, -0.4, 0.2, 0.1]
PLANAR = frames.FramePolicy("planar_fallback")


def _irregular(p):
    """A polynomial path whose sigma' vanishes at lambda = 0."""
    return curves.SplinePath([curves.PolynomialSegment(
        [[0.0, 0.0, 1.0]] + [[0.0, 0.0, 0.0]] * (p - 1), (-1.0, 1.0))])


# (plant, q, qd, path, lambda*, policy) where the transform layer fails
TRANSFORM_FAILURES = {
    "irregular": ("example2", Q2, QD2, _irregular(2), 0.0, frames.FRENET),
    "irregular_nan": ("example2", Q2, QD2, _circle_nan_at(1.5, range(4)), 1.5,
                      frames.FRENET),
    "collapse": ("example2", Q2, QD2, curves.line_path([0.0, 0.0], [1.0, 0.0]), 0.5,
                 frames.FRENET),
    "collapse_nan": ("example2", Q2, QD2, _circle_nan_at(1.5, (2,)), 1.5,
                     frames.FRENET),
    "planar_not_finite": ("example2", Q2, QD2, _circle_nan_at(1.5, (2,)), 1.5, PLANAR),
    "frenet_not_finite": ("example2", Q2, QD2, _circle_nan_at(1.5, (3,)), 1.5,
                          frames.FRENET),
    "not_in_plane": ("cpm4", Q3, QD3, curves.helix_path(), 1.0, frames.FramePolicy(
        "planar_fallback", ((0.0, 0.0, 1.0),))),
    "inertia_not_spd": ("not_spd", Q1, QD1, curves.line_path([-5.0], [5.0]), 1.0,
                        frames.FRENET),
    "inertia_not_finite": ("not_finite", Q1, QD1, curves.line_path([-5.0], [5.0]),
                           1.0, frames.FRENET),
    "drift_not_finite": ("example1", Q1, [np.nan, -0.4],
                         curves.line_path([-5.0], [5.0]), 1.0, frames.FRENET),
    # both fail: the frame's check raises first
    "irregular_and_not_spd": ("not_spd", Q1, QD1, _irregular(1), 0.0, frames.FRENET),
}


def _plant(name):
    if name == "not_spd":
        return _with_inertia(dynamics.make_example1(), [[1.0, 2.0], [2.0, 1.0]])
    if name == "not_finite":
        return _with_inertia(dynamics.make_example1(), [[np.inf, 0.0], [0.0, 1.0]])
    return dynamics.make_plant(name)


@pytest.mark.parametrize("name", TRANSFORM_FAILURES)
def test_transform_layer_fails_as_its_pieces(name):
    plant, q, qd, path, lam, policy = TRANSFORM_FAILURES[name]
    system, ps = _plant(plant), projection.ProjectionState(0, lam)
    want = _raised(lambda: oracles.linearize_pieces(system, q, qd, path, ps, policy))
    assert _raised(lambda: transform.linearize(system, q, qd, path, ps, policy)) == want
    if name == "irregular_and_not_spd":
        assert want[0].__name__ == "IrregularCurveError"


# the transform layer's failures, and straight arms whose beta loses rank:
# p = 2 (closed-form conditioning) and p = 3 (eigvalsh)
PERIOD_FAILURES = {
    **TRANSFORM_FAILURES,
    "near_singular": ("example2", [0.0] * 3, QD2, curves.circle_path(3.0), 0.0,
                      frames.FRENET),
    "near_singular_p3": ("cpm4", [0.0] * 4, QD3, curves.helix_path(), 1.0,
                         frames.FRENET),
}


@pytest.mark.parametrize("name", PERIOD_FAILURES)
def test_period_call_fails_as_its_pieces(name):
    """The period's call raises the type, message and fields of its pieces:
    frame checks first, then the inertia and drift, then the conditioning."""
    plant, q, qd, path, lam, policy = PERIOD_FAILURES[name]
    system = _plant(plant)
    args = (q, qd, projection.ProjectionState(0, lam), 0.0, control.OuterLoopGains(),
            control.RedundancyConfig(), system.default_limits, policy, 0.01, 0.0)
    want = _raised(lambda: oracles.period_pieces(system, path, *args))
    assert _raised(lambda: _period(system, path, *args)) == want
    if name.startswith("near_singular"):
        assert want[0].__name__ == "NearSingularDecouplingError"


def test_decoupling_message_renders_beta():
    """The decoupling solve's messages show beta's entries, rendered from
    the recorded values: the period's call has no argument named beta."""
    with pytest.raises(SplineFollowError) as exc:
        control.resolve_input([np.nan], [[1.0, 0.5]], [0.0], [0.0, 0.0],
                              [[2.0, 0.0], [0.0, 1.0]])
    assert str(exc.value) == ("non-finite solution of the decoupling matrix "
                              "beta W^-1 beta' system at beta=[[1.0, 0.5]]")
