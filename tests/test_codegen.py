"""Generated code: its failures and the names it calls.

Every check the recorded code makes raises a typed error whose message
and fields are pinned here, exactly, for each failure the period's
kernels can report.  Every global name of every generated function
resolves in ``codegen.namespace`` or in builtins, failure branches
included, so a misspelt name fails here and not at the first bad input.
"""

import builtins
import dataclasses
import dis
import math
import traceback
import types
from pathlib import Path

import numpy as np
import pytest

from splinefollow import codegen, control, curves, dynamics, frames, projection, sim
from splinefollow.errors import (DegenerateFrameError, DivergenceError,
                                 IrregularCurveError, NearSingularDecouplingError,
                                 NonSPDInertiaError)
import oracles
import test_dynamics
from test_frames import _circle_nan_at
from test_sim import _criterion3_portrait

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PLANAR = frames.FramePolicy(mode="planar_fallback")


def _with_inertia(D):
    return test_dynamics.TestInertiaSolve._with_inertia(dynamics.make_example1(), D)


Q, QD = [0.1, 0.2], [0.3, -0.4]

# (call, error type, str(exc), fields)
FAILURES = {
    "irregular": (
        lambda: frames.frame_jet(curves.SplinePath(
            [curves.PolynomialSegment([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                      (-1.0, 1.0))]), 0, 0.0),
        IrregularCurveError, "||sigma'(0.0)|| = 0.000e+00 (irregular)", {}),
    "irregular_nan": (
        lambda: frames.frame_jet(_circle_nan_at(1.5, range(4)), 0, 1.5),
        IrregularCurveError, "||sigma'(1.5)|| = nan (irregular)", {}),
    "collapse": (
        lambda: frames.frame_jet(curves.line_path([0.0, 0.0], [1.0, 0.0]), 0, 0.5),
        DegenerateFrameError,
        "Gram-Schmidt residual collapsed at vector 2 (norm 0.000e+00)", {"index": 2}),
    "collapse_nan": (
        lambda: frames.frame_jet(_circle_nan_at(1.5, (2,)), 0, 1.5),
        DegenerateFrameError,
        "Gram-Schmidt residual collapsed at vector 2 (norm nan)", {"index": 2}),
    "planar_not_finite": (
        lambda: frames.frame_jet(_circle_nan_at(1.5, (2,)), 0, 1.5, PLANAR),
        DegenerateFrameError, "the planar_fallback frame (p = 2) at lambda = 1.5 "
        "has values that are not finite", {"index": None}),
    "frenet_not_finite": (
        lambda: frames.frame_jet(_circle_nan_at(1.5, (3,)), 0, 1.5),
        DegenerateFrameError, "the frenet_serret frame (p = 2) at lambda = 1.5 "
        "has values that are not finite", {"index": None}),
    "not_in_plane": (
        lambda: frames.frame_jet(curves.helix_path(), 0, 1.0, frames.FramePolicy(
            mode="planar_fallback", fixed_vectors=([0.0, 0.0, 1.0],))),
        DegenerateFrameError, "tangent is not orthogonal to the supplied plane "
        "normal", {"index": 2}),
    "near_singular_p1": (
        lambda: control.resolve_input([0.0], [[0.0, 0.0]], [0.0], [0.0, 0.0]),
        NearSingularDecouplingError,
        "decoupling matrix nearly singular (cond(beta W^-1 beta') = inf)",
        {"cond": np.inf}),
    "near_singular_p2": (
        lambda: control.resolve_input([0.0, 0.0], [[1.0, 0.0], [0.0, 1e-6]],
                                      [0.0, 0.0], [0.0, 0.0]),
        NearSingularDecouplingError,
        "decoupling matrix nearly singular (cond(beta W^-1 beta') = 1.000e+12)",
        {"cond": 1e12}),
    "near_singular_p3": (
        lambda: control.resolve_input(
            [0.0] * 3, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 1e-6, 0.0]], [0.0] * 3, [0.0] * 4),
        NearSingularDecouplingError,
        "decoupling matrix nearly singular (cond(beta W^-1 beta') = 1.000e+12)",
        {"cond": 1e12}),
    "near_singular_nan": (
        lambda: control.resolve_input([0.0, 0.0], [[1.0, np.nan], [0.0, 1.0]],
                                      [0.0, 0.0], [0.0, 0.0]),
        NearSingularDecouplingError,
        "decoupling matrix nearly singular (cond(beta W^-1 beta') = nan)",
        {"cond": np.nan}),
    "weight_not_spd": (
        lambda: control.resolve_input([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                                      [0.0, 0.0], [0.0, 0.0],
                                      [[1.0, 2.0], [2.0, 1.0]]),
        NonSPDInertiaError, "weight matrix not SPD at W=[[1.0, 2.0], [2.0, 1.0]]", {}),
    "inertia_not_spd": (
        lambda: dynamics.acceleration(_with_inertia([[1.0, 2.0], [2.0, 1.0]]),
                                      Q, QD, [1.0, 0.0]),
        NonSPDInertiaError, "inertia matrix not SPD at q=[0.1, 0.2]", {}),
    "inertia_not_spd_drift": (
        lambda: dynamics.drift_and_input(_with_inertia([[1.0, 1.0], [1.0, 1.0]]),
                                         Q, QD),
        NonSPDInertiaError, "inertia matrix not SPD at q=[0.1, 0.2]", {}),
    "inertia_not_finite": (
        lambda: dynamics.acceleration(_with_inertia([[np.inf, 0.0], [0.0, 1.0]]),
                                      Q, QD, [1.0, 0.0]),
        DivergenceError, "non-finite inertia matrix at q=[0.1, 0.2]", {}),
    "solution_not_finite": (
        lambda: dynamics.acceleration(dynamics.make_example1(), Q, QD, [np.nan, 0.0]),
        DivergenceError,
        "non-finite solution of the inertia matrix system at q=[0.1, 0.2]", {}),
    "drift_not_finite": (
        lambda: dynamics.drift_and_input(dynamics.make_example1(), Q, [np.nan, -0.4]),
        DivergenceError,
        "non-finite solution of the inertia matrix system at q=[0.1, 0.2]", {}),
}


@pytest.mark.parametrize("name", FAILURES)
def test_recorded_failure_message_and_fields(name):
    """Each recorded check raises its type with this exact message and
    these fields, and no simulated time."""
    call, error, message, fields = FAILURES[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.time is None
    for field, want in fields.items():
        got = getattr(exc.value, field)
        if isinstance(want, float) and np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want and type(got) is type(want)


def _global_names(code):
    """The global names ``code`` and its nested code objects read or write."""
    for ins in dis.get_instructions(code):
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME", "STORE_GLOBAL", "DELETE_GLOBAL"):
            yield ins.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_names(const)


def test_generated_names_resolve(monkeypatch):
    """The three scenarios, the portrait, an array ``evaluate`` and the
    layers' pieces compile every kind of generated function; each name
    they use is defined."""
    made = []
    compiled = codegen.compiled

    def kept(source, label="generated", **kw):
        made.append((label, compiled(source, label, **kw), kw.get("lib", math)))
        return made[-1][1]

    codegen.kernel.cache_clear()
    monkeypatch.setattr(codegen, "compiled", kept)
    for name in ("two_mass_line", "figure_eight_3r", "twisted_loop_4dof"):
        scen = sim.Scenario.from_file(SCENARIOS / f"{name}.json")
        # 20 periods: the two-mass line's descent runs from period 10 on
        sim.run(dataclasses.replace(scen, duration=20 * scen.dt))
    _criterion3_portrait(dynamics.make_example2(), [[-0.6, 0.0], [1.25, 0.0]], 0.02)
    curves.circle_path().evaluate(0, np.linspace(0.0, 1.0, 5), 2)
    # the public pieces that the two layers record, each compiled alone
    system, path = dynamics.make_example2(), curves.circle_path(2.2)
    q, qd = sim.ik_planar3r((2.2, 0.0), 0.0).tolist(), [0.1, -0.2, 0.3]
    lin = oracles.linearize_pieces(
        system, q, qd, path, projection.ProjectionState(0, 0.0))
    oracles.command_pieces(lin, q, 0.0, control.OuterLoopGains(),
                           control.RedundancyConfig(W=np.eye(3)),
                           system.default_limits, 0.01, 0.0)
    labels = [label for label, _, _ in made]
    for want in ("_period_code", "_frame_code", "_resolve_code",
                 "_plant_code", "_rk4_code", "_linearize_code", "_newton_code",
                 "_jet_code", "on numpy"):
        assert any(want in label for label in labels), labels
    seen = set()
    for label, f, lib in made:
        names = set(_global_names(f.__code__))
        missing = {n for n in names - set(codegen.namespace(lib))
                   if not hasattr(builtins, n)}
        assert not missing, (label, missing)
        seen |= names
    assert {"NearSingularDecouplingError", "DegenerateFrameError",
            "IrregularCurveError", "NonSPDInertiaError", "DivergenceError"} <= seen


def test_traceback_shows_the_generated_line():
    """A typed error raised in generated code shows the line that raised
    it: ``compiled`` keeps each source in ``linecache`` under its label."""
    with pytest.raises(NearSingularDecouplingError):
        try:
            control.resolve_input([0.0], [[0.0, 0.0]], [1.0], [0.0, 0.0])
        except NearSingularDecouplingError:
            tb = traceback.format_exc()
            raise
    assert 'File "<_resolve_code(1, 2, False)>", line ' in tb
    assert "    raise NearSingularDecouplingError(f\"decoupling matrix nearly singular" in tb


def test_constants_fold_bit_for_bit():
    """Arithmetic on numbers alone runs at record time, and inf and nan are
    literals: the recorded code gives the floats of the written arithmetic
    at -0.0, inf and nan too."""
    code = codegen.Recorder()
    (x,) = code.unpack("x", (1,))
    f = codegen.compiled(code.function("x", [
        x * 1.0, x / 1.0, x - 0.0, x - (-0.0), x + 0.0, 0.0 * x, x * np.inf,
        (2.0 * 3.0) * x, -np.inf - x, x / np.nan]))
    for v in (-0.0, 0.0, 1.5, -np.inf, np.inf, np.nan):
        want = [v * 1.0, v / 1.0, v - 0.0, v - (-0.0), v + 0.0, 0.0 * v, v * np.inf,
                6.0 * v, -np.inf - v, v / np.nan]
        assert repr(f([v])) == repr(want)
