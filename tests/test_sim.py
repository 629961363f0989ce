"""Closed-loop simulation plumbing: integrator, scenarios, logs, portraits."""

import collections
import dataclasses
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest

from pathlib import Path

from splinefollow import codegen, control, curves, dynamics, frames, projection, sim
from splinefollow.dynamics import State
from splinefollow.errors import (
    DivergenceError,
    NonConvergenceError,
    NumericalFailure,
    ParameterError,
    SingularManifoldError,
)
import oracles

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCE = Path(__file__).resolve().parent / "reference"


def _example1_scenario(**overrides):
    base = dict(
        plant="example1",
        path_spec={"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}},
        q0=[0.5, 0.0],
        qd0=[0.0, 0.0],
        gains=control.OuterLoopGains(
            tangential_mode="position", K_P=4.0, K_D=3.0, eta1_ref=6.0
        ),
        duration=2.0,
        dt=0.02,
        substeps=5,
        name="line-test",
    )
    base.update(overrides)
    return sim.Scenario(**base)


def _robust(gains, mu):
    """Robust transversal gains from the PD gains: K = -(Kp, Kd) per
    component, K0 = 0.1 K and K2 = 0.1 / mu K."""
    m = len(gains.xi_Kp)
    K = np.kron(np.eye(m), [[-gains.xi_Kp[0], -gains.xi_Kd[0]]])
    return dataclasses.replace(
        gains, transversal_mode="robust", robust_mu=mu, robust_K=K.tolist(),
        robust_K0=(0.1 * K).tolist(), robust_K2=(0.1 / mu * K).tolist())


def _reference_hold(system, state, u, h, substeps):
    """The RK4 hold as list arithmetic: the code the generated substep
    records, run on floats."""
    q, qd = state.q.tolist(), state.qd.tolist()
    u = np.asarray(u, dtype=float).tolist()
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        a1 = dynamics.acceleration(system, q, qd, u)
        q2 = [x + half * v for x, v in zip(q, qd)]
        v2 = [v + half * a for v, a in zip(qd, a1)]
        a2 = dynamics.acceleration(system, q2, v2, u)
        q3 = [x + half * v for x, v in zip(q, v2)]
        v3 = [v + half * a for v, a in zip(qd, a2)]
        a3 = dynamics.acceleration(system, q3, v3, u)
        q4 = [x + h * v for x, v in zip(q, v3)]
        v4 = [v + h * a for v, a in zip(qd, a3)]
        a4 = dynamics.acceleration(system, q4, v4, u)
        q = [x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
             for x, k1, k2, k3, k4 in zip(q, qd, v2, v3, v4)]
        qd = [v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
              for v, k1, k2, k3, k4 in zip(qd, a1, a2, a3, a4)]
    return q, qd


class TestIntegrator:
    @pytest.mark.parametrize("plant", ["example1", "example2", "cpm4"])
    @pytest.mark.parametrize("substeps", [1, 2, 5])
    def test_hold_matches_list_code(self, plant, substeps):
        """The generated hold gives the list code's floats exactly."""
        system = dynamics.make_plant(plant)
        rng = np.random.default_rng(substeps)
        for _ in range(10):
            st = State(q=rng.uniform(-1.0, 1.0, system.N),
                       qd=rng.uniform(-1.0, 1.0, system.N))
            u, h = rng.uniform(-2.0, 2.0, system.N), 0.02 / substeps
            q, qd = _reference_hold(system, st, u, h, substeps)
            out = sim._rk4_hold(system, st.q.tolist(), st.qd.tolist(), u.tolist(),
                                h, substeps)
            assert out == (q, qd)

    @pytest.mark.parametrize("plant", ["example1", "example2", "cpm4"])
    @pytest.mark.parametrize("substeps", [1, 2, 5])
    def test_hold_calls_acceleration_once_per_stage(self, plant, substeps,
                                                    monkeypatch):
        """The hold calls dynamics.acceleration, as the module holds it,
        4 x substeps times: one call per RK4 stage."""
        system = dynamics.make_plant(plant)
        calls = []
        acceleration = dynamics.acceleration

        def counted(*args):
            calls.append(1)
            return acceleration(*args)

        monkeypatch.setattr(dynamics, "acceleration", counted)
        sim._rk4_hold(system, [0.1] * system.N, [0.2] * system.N, [0.3] * system.N,
                      0.02 / substeps, substeps)
        assert len(calls) == 4 * substeps

    def test_rk4_order_on_linear_system(self, example1):
        """Halving the step shrinks the error by ~16 (4th order)."""
        st = State(q=[0.3, -0.2], qd=[0.5, 0.1])
        u = np.array([0.7, -0.4])
        x = st.q.tolist(), st.qd.tolist(), u.tolist()
        ref = np.concatenate(sim._rk4_hold(example1, *x, 1e-4, 10000))
        errs = []
        for substeps in (2, 4):
            out = np.concatenate(sim._rk4_hold(example1, *x, 1.0 / substeps,
                                               substeps))
            errs.append(np.linalg.norm(out - ref))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_zero_input_at_rest_stays(self, example2):
        st = State(q=[0.1, 0.2, 0.3], qd=np.zeros(3))
        q, _ = sim._rk4_hold(example2, st.q.tolist(), st.qd.tolist(), [0.0] * 3,
                             0.01, 10)
        np.testing.assert_allclose(q, st.q, atol=1e-12)


class TestWriteTable:
    """``write_table`` writes the bytes of ``np.savetxt(fmt="%.17g")``."""

    @staticmethod
    def _savetxt(table, header):
        out = io.StringIO()
        np.savetxt(out, table, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        return out.getvalue()

    @staticmethod
    def _written(table, header):
        out = io.StringIO()
        sim.write_table(out, table, header)
        return out.getvalue()

    @pytest.mark.parametrize("name", ["two_mass_line", "figure_eight_3r",
                                      "twisted_loop_4dof"])
    def test_shipped_run_tables(self, name):
        """The reference logs of the shipped scenarios, read back exactly."""
        lines = (REFERENCE / f"{name}.csv").read_text().splitlines()
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        assert self._written(table, lines[0]) == self._savetxt(table, lines[0])
        assert self._written(table, lines[0]).splitlines() == lines

    @pytest.mark.parametrize("table", [
        np.array([[-0.0, 5e-324, 1e308, -1e308], [3.0, -7.0, 0.1, 2.0**53 + 2.0]]),
        np.array([[1.0, 0.5, -2.5]]),   # one row
        np.empty((0, 4)),
        np.arange(600.0).reshape(300, 2) / 7.0,   # more rows than one chunk
        [[3, 0.25, 1.5e-17], [0, 1.0, 2.0]],      # the CLI's project rows
    ], ids=["edge-values", "one-row", "empty", "two-chunks", "list-rows"])
    def test_matches_savetxt(self, table):
        assert self._written(table, "a,b") == self._savetxt(table, "a,b")

    def test_file_name_and_open_file(self, tmp_path):
        table = np.array([[1.0, -0.0], [1e-300, 7.0]])
        sim.write_table(str(tmp_path / "named.csv"), table, "x,y")
        with open(tmp_path / "open.csv", "w") as f:
            sim.write_table(f, table, "x,y")
        np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",",
                   header="x,y", comments="")
        ref = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "named.csv").read_bytes() == ref
        assert (tmp_path / "open.csv").read_bytes() == ref


class TestScenario:
    def test_configs_compare_by_identity(self):
        """Array fields have no single truth value, so == is identity."""
        pairs = [
            (dynamics.Limits([-1, -1], [1, 1], [-2, -2], [2, 2]),
             dynamics.Limits([-1, -1], [1, 1], [-2, -2], [2, 2])),
            (control.RedundancyConfig(W=np.eye(2)), control.RedundancyConfig(W=np.eye(2))),
            (_example1_scenario(), _example1_scenario()),
            (State([0.0, 0.0], [0.0, 0.0]), State([0.0, 0.0], [0.0, 0.0])),
            (dynamics.make_example1(), dynamics.make_example1()),
            (sim.RunLog("log", np.zeros((2, 15)), sim._log_columns(2, 1)),
             sim.RunLog("log", np.zeros((2, 15)), sim._log_columns(2, 1))),
            (sim.PhasePortrait(np.zeros((1, 2)), [None], np.ones(1, bool), [], None),
             sim.PhasePortrait(np.zeros((1, 2)), [None], np.ones(1, bool), [], None)),
        ]
        for a, b in pairs:
            assert (a == b) is False
            assert (a == a) is True

    def test_round_trip_through_dict(self):
        d = {
            "plant": "example1",
            "path": {"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}},
            "q0": [0.5, 0.0],
            "qd0": [0.0, 0.0],
            "gains": {"tangential_mode": "position", "K_P": 4.0, "K_D": 3.0,
                      "eta1_ref": 6.0},
            "duration": 1.0,
            "limits": {"q_min": [-2, -5], "q_max": [2, 5],
                       "u_min": [-5, -5], "u_max": [5, 5]},
            "frame_mode": "line_fallback",
            "frame_fixed": [[0.0, 1.0]],
            "redundancy": {"W": [[2.0, 0.0], [0.0, 1.0]], "bias_mode": "zero"},
            "encoder_resolution": [1e-3, 1e-3],
            "name": "roundtrip",
        }
        scen = sim.Scenario.from_dict(d)
        assert scen.name == "roundtrip"
        assert scen.gains.K_P == 4.0
        assert scen.frame_policy.mode == "line_fallback"
        np.testing.assert_allclose(scen.limits.q_max, [2, 5])
        np.testing.assert_array_equal(scen.redundancy.W, [[2.0, 0.0], [0.0, 1.0]])
        assert scen.redundancy.bias_mode == "zero"
        np.testing.assert_array_equal(scen.encoder_resolution, [1e-3, 1e-3])
        # left-out keys take the dataclass defaults
        assert (scen.dt, scen.substeps) == (0.02, 10)
        assert scen.duration == 1.0 and isinstance(scen.duration, float)

    def test_from_file(self, tmp_path):
        d = {
            "plant": "example1",
            "path": {"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}},
            "q0": [0.0, 0.0],
            "qd0": [0.0, 0.0],
        }
        f = tmp_path / "scen.json"
        f.write_text(json.dumps(d))
        scen = sim.Scenario.from_file(str(f))
        assert scen.plant == "example1"

    def test_validation(self):
        with pytest.raises(ParameterError):
            _example1_scenario(dt=-0.1)
        # a fractional substep count is neither truncated nor left to fail
        # in the first period
        with pytest.raises(ParameterError, match="substeps"):
            _example1_scenario(substeps=2.5)
        d = {"plant": "example1", "q0": [0.0, 0.0], "qd0": [0.0, 0.0],
             "path": {"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}}}
        with pytest.raises(ParameterError, match="substeps"):
            sim.Scenario.from_dict({**d, "substeps": 2.5})

    @pytest.mark.parametrize("bad", [
        {"dt": float("nan")}, {"duration": float("inf")}, {"duration": 0.001},
    ])
    def test_validation_needs_a_finite_period(self, bad):
        with pytest.raises(ParameterError):
            _example1_scenario(**bad)

    def test_path_spec_variants(self, tmp_path, wavy_path):
        assert sim._build_path({"waypoints": [[0, 0], [1, 0], [2, 1]]}).n_segments == 2
        f = tmp_path / "path.json"
        f.write_text(json.dumps(wavy_path.to_dict()))
        assert sim._build_path({"file": str(f)}).n_segments == wavy_path.n_segments
        with pytest.raises(ParameterError):
            sim._build_path({"analytic": "lemniscate"})
        with pytest.raises(ParameterError):
            sim._build_path({})


class TestRun:
    def test_deterministic_logs(self, tmp_path):
        logs = []
        for i in range(2):
            log = sim.run(_example1_scenario())
            f = tmp_path / f"log{i}.csv"
            log.to_csv(str(f))
            logs.append(f.read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("scenario, N, p", [
        ("two_mass_line", 2, 1), ("figure_eight_3r", 3, 2), ("twisted_loop_4dof", 4, 3)])
    def test_log_fields_are_the_csv_columns(self, tmp_path, scenario, N, p):
        """Each log field has its shape and dtype for p = 1, 2 and 3, xi
        (steps, 2, 0) when p = 1, and holds the columns to_csv writes under
        its names, in the README's order."""
        scen = sim.Scenario.from_file(SCENARIOS / f"{scenario}.json")
        log = sim.run(dataclasses.replace(scen, duration=5 * scen.dt))
        m, r = p - 1, 2 * N - 2 * p
        names = {"t": ["t"], "q": [f"q{i}" for i in range(N)],
                 "qd": [f"qd{i}" for i in range(N)], "u": [f"u{i}" for i in range(N)],
                 "eta": ["eta1", "eta2"],
                 "xi": [f"xi1_{j}" for j in range(m)] + [f"xi2_{j}" for j in range(m)],
                 "zeta": [f"zeta{i}" for i in range(r)], "k_star": ["k_star"],
                 "lambda_star": ["lambda_star"], "iterations": ["iterations"],
                 "saturated": ["saturated"]}
        shapes = {"t": (5,), "q": (5, N), "qd": (5, N), "u": (5, N), "eta": (5, 2),
                  "xi": (5, 2, m), "zeta": (5, r), "k_star": (5,), "lambda_star": (5,),
                  "iterations": (5,), "saturated": (5,)}
        dtypes = dict.fromkeys(names, np.float64) | {
            "k_star": np.int64, "iterations": np.int64, "saturated": np.bool_}
        f = tmp_path / "log.csv"
        log.to_csv(str(f))
        columns = f.read_text().splitlines()[0].split(",")
        table = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
        assert columns == sum(names.values(), [])
        for key, cols in names.items():
            x = getattr(log, key)
            assert (x.shape, x.dtype) == (shapes[key], dtypes[key]), key
            np.testing.assert_array_equal(
                x.reshape(5, len(cols)), table[:, [columns.index(c) for c in cols]])

    def test_divergence_guard(self):
        gains = control.OuterLoopGains(
            tangential_mode="velocity", K_P=50.0, K_I=0.0, eta2_ref=0.0
        )
        # bypass gain validation to force an unstable loop (negative damping)
        object.__setattr__(gains, "K_P", -50.0)
        wide = dynamics.Limits(
            q_min=[-2.0, -5.0], q_max=[2.0, 5.0],
            u_min=[-1e9, -1e9], u_max=[1e9, 1e9],
        )
        scen = _example1_scenario(
            gains=gains, q0=[0.0, 1.0], qd0=[0.0, 2.0], duration=60.0,
            limits=wide,
        )
        with pytest.raises(DivergenceError):
            sim.run(scen)

    def test_non_finite_state_is_divergence(self):
        scen = sim.Scenario.from_file(SCENARIOS / "two_mass_line.json")
        scen = dataclasses.replace(scen, dt=1e20, duration=1e20)
        with pytest.raises(DivergenceError) as exc:
            sim.run(scen)
        assert exc.value.time == 0.0

    def test_failure_keeps_fields_and_time(self):
        scen = sim.Scenario.from_file(SCENARIOS / "two_mass_line.json")
        with pytest.raises(NonConvergenceError) as exc:
            sim.run(scen, proj_cfg=projection.ProjectionConfig(max_iters=2))
        assert exc.value.state is not None
        assert exc.value.time == pytest.approx(0.18)
        assert str(exc.value).startswith("t=0.180s: ")

    @pytest.mark.parametrize("bad", [
        {"encoder_resolution": np.array([1e-3])},
        {"encoder_resolution": np.array([0.0, 0.0])},
        {"encoder_resolution": np.array([np.nan, 1e-3])},
        {"encoder_resolution": np.array([1e-3, -1e-3])},
        {"limits": dynamics.Limits(q_min=[-2.0], q_max=[2.0],
                                   u_min=[-5.0], u_max=[5.0])},
        {"limits": dynamics.Limits(q_min=[-2.0, -5.0], q_max=[2.0, 5.0],
                                   u_min=[-5.0] * 3, u_max=[5.0] * 3)},
        {"redundancy": control.RedundancyConfig(W=np.eye(1))},
        {"q0": [0.5, 0.0, 0.0]},
        {"qd0": [0.0]},
    ])
    def test_per_joint_sizes_must_fit_the_plant(self, bad):
        with pytest.raises(ParameterError):
            sim.run(_example1_scenario(**bad))

    @pytest.mark.parametrize("scenario, K, want", [
        ("figure_eight_3r", ((-1.0, -1.0, 0.0, 0.0), (0.0, 0.0, -1.0, -1.0)),
         "1 x 2"),                                     # p = 3 gains, p = 2 plant
        ("twisted_loop_4dof", ((-1.0, -1.0),), "2 x 4"),   # p = 2 gains, p = 3
    ])
    def test_robust_gains_must_fit_the_plant(self, scenario, K, want):
        """K, K0 and K2 are (p - 1) x 2(p - 1), checked before the first period."""
        scen = sim.Scenario.from_file(SCENARIOS / f"{scenario}.json")
        zero = np.zeros(np.shape(K)).tolist()
        gains = dataclasses.replace(scen.gains, transversal_mode="robust",
                                    robust_K=K, robust_K0=zero, robust_K2=zero)
        with pytest.raises(ParameterError, match=f"must be {want} for plant"):
            sim.run(dataclasses.replace(scen, gains=gains))

    def test_robust_mode_runs_in_closed_loop(self):
        """Robust gains with K = -(Kp, Kd) and no switched term are the PD law."""
        scen = sim.Scenario.from_file(SCENARIOS / "figure_eight_3r.json")
        scen = dataclasses.replace(scen, duration=0.25)
        (kp,), (kd,) = scen.gains.xi_Kp, scen.gains.xi_Kd
        robust = dataclasses.replace(
            scen.gains, transversal_mode="robust", robust_K=((-kp, -kd),),
            robust_K0=((0.0, 0.0),), robust_K2=((0.0, 0.0),))
        pd = sim.run(scen)
        log = sim.run(dataclasses.replace(scen, gains=robust))
        np.testing.assert_allclose(log.u, pd.u, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(log.q, pd.q, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("scenario, mu", [("figure_eight_3r", 1e-5),
                                              ("twisted_loop_4dof", 5e-3)])
    def test_robust_log_matches_gains_rebuilt_per_call(self, scenario, mu):
        """Each period's recorded transversal law gives the list-arithmetic
        law on its xi with the gains rebuilt from the tuples, bit for bit;
        mu puts both switched branches in."""
        scen = sim.Scenario.from_file(SCENARIOS / f"{scenario}.json")
        robust = _robust(scen.gains, mu)
        system = dynamics.make_plant(scen.plant, **scen.plant_kwargs)
        periods = sim._simulate(
            system, sim._build_path(scen.path_spec), scen.q0.tolist(),
            scen.qd0.tolist(), robust, round(0.5 / scen.dt), scen.dt, scen.substeps,
            redundancy=scen.redundancy, limits=scen.limits or system.default_limits,
            proj_cfg=projection.ProjectionConfig(), policy=scen.frame_policy)
        branches = set()

        def rebuilt(xi, gains):
            dot = frames.dot
            z = [x for pair in zip(*xi) for x in pair]
            K, K0, K2 = (np.asarray(g, dtype=float).tolist()
                         for g in (gains.robust_K, gains.robust_K0, gains.robust_K2))
            nz = math.sqrt(dot(z, z))
            branches.add(nz >= gains.robust_mu)
            sw = ([dot([gains.robust_mu**2 * k for k in row], z) / nz for row in K2]
                  if nz >= gains.robust_mu else [nz * dot(row, z) for row in K2])
            return [dot([a + b for a, b in zip(k, k0)], z) + x
                    for k, k0, x in zip(K, K0, sw)]

        for _, _, _, _, diag in periods:
            assert repr(diag.v[1:]) == repr(rebuilt(diag.lin.xi, robust))
        assert branches == {True, False}

    def test_one_kinematics_call_per_period(self, example1):
        """The projection and linearize share each period's kinematics call;
        the one extra call is the global initialization's."""
        calls = []

        def kinematics(q, qd):
            calls.append(1)
            return example1.kinematics(q, qd)

        counted = dataclasses.replace(example1, kinematics=kinematics)
        scen = _example1_scenario(duration=1.0)
        log = sim.run(scen, system=counted)
        assert len(log.t) == 50
        assert len(calls) == len(log.t) + 1

    def test_periods_are_counted_when_run(self):
        """``run`` counts the periods of the duration the scenario holds when
        it is called; one that covers no period, or more than a float
        counts, raises ParameterError naming duration and dt."""
        scen = _example1_scenario()
        scen.duration = 0.1
        assert len(sim.run(scen).t) == 5
        for duration in (0.005, 1e308):
            scen.duration = duration
            with pytest.raises(ParameterError, match=re.escape(
                    "dt must be > 0 and duration / dt finite and round to at least "
                    f"1 period; got duration {duration!r}, dt 0.02")):
                sim.run(scen)

    def test_control_code_generated_once(self, monkeypatch):
        """Two consecutive 50-period figure-eight runs: the first generates
        the period's call after the projection of its plant, p, frame mode
        and (tangential, transversal, bias) modes and weighting, the
        polynomial segments' Newton call (projection) and jet of orders
        0..3 (transform), the N = 3 RK4 substep and the plant's solve
        once each, the second generates nothing.  Likewise for the first
        20 periods of the two-mass line, whose Newton iterates and descent
        (from period 10 on) generate the Newton call of its p = 1 line
        segment once, and no other call for the descent."""
        labels = []
        compiled = codegen.compiled

        def counted(source, label="generated", **names):
            labels.append(label)
            return compiled(source, label, **names)

        scen = sim.Scenario.from_file(SCENARIOS / "figure_eight_3r.json")
        scen.duration = 50 * scen.dt
        system, path = dynamics.make_example2(), sim._build_path(scen.path_spec)
        codegen.kernel.cache_clear()
        monkeypatch.setattr(codegen, "compiled", counted)
        log = sim.run(scen, path=path, system=system)
        first = list(labels)
        sim.run(scen, path=path, system=system)
        assert len(log.t) == 50
        constants = "{}, {}, 'planar3r_forces'".format(*system.solves.constants[:2])
        for label in (f"_period_code({constants}, 2, 'planar_fallback', (), 'velocity', "
                      "'pd', 'joint_limit', False)",
                      "_newton_code('_polynomial_rows', 2, 6)",
                      "_jet_code(3, 0, '_polynomial_rows', 2, 6)", "_rk4_code(3,)",
                      f"_stage_code({constants})"):
            assert first.count(label) == 1, first
        assert len(set(first)) == len(first)
        assert labels == first
        scen = sim.Scenario.from_file(SCENARIOS / "two_mass_line.json")
        scen.duration = 20 * scen.dt
        path, labels[:] = sim._build_path(scen.path_spec), []
        sim.run(scen, path=path)
        first = list(labels)
        sim.run(scen, path=path)
        assert first.count("_newton_code('_polynomial_rows', 1, 2)") == 1, first
        assert not any("_descent_code" in label for label in first), first
        assert len(set(first)) == len(first)
        assert labels == first

    def test_quantized_measurement(self):
        scen = _example1_scenario(encoder_resolution=np.array([1e-4, 1e-4]))
        log = sim.run(scen)
        assert np.isfinite(log.u).all()

    def test_float_measurement_is_numpy_quantization(self):
        """Quantized q equals np.round(q / r) * r and qd equals
        (q - q_prev) / dt bit for bit, also at exact half-steps (dyadic
        resolutions) and for the -0.0 of a small negative q."""
        rng = np.random.default_rng(5)
        r, dt = np.array([2.0**-10, 1e-3, 2.0**-6]), 0.02
        meas = sim._Measurement(r, dt)
        prev = None
        for i in range(300):
            q = [rng.uniform(-1.0, 1.0, 3),
                 (rng.integers(-500, 500, 3) + 0.5) * r,     # half-steps
                 -rng.uniform(0.0, 0.5, 3) * r][i % 3]       # round to -0.0
            got_q, got_qd = meas.observe(q.tolist(), [9.0] * 3)
            want_q = np.round(q / r) * r
            want_qd = np.zeros(3) if prev is None else (want_q - prev) / dt
            prev = want_q
            assert np.array(got_q).tobytes() == want_q.tobytes()
            assert np.array(got_qd).tobytes() == want_qd.tobytes()
            assert all(type(x) is float for x in got_q + got_qd)

    @pytest.mark.parametrize("scenario, allowed", [
        ("two_mass_line", {}),
        ("figure_eight_3r", {}),
        ("twisted_loop_4dof", {"eigvalsh": 50, "tolist": 50}),
        ("figure_eight_3r:robust", {}),
    ])
    def test_period_calls_no_numpy(self, scenario, allowed):
        """Over 50 warm periods, package code calls numpy only for the
        conditioning check's eigvalsh (p >= 3) and the tolist of its
        result, and q, qd and u stay lists of Python floats; ``:robust``
        runs the robust transversal law."""
        name, _, mode = scenario.partition(":")
        scen = sim.Scenario.from_file(SCENARIOS / f"{name}.json")
        gains = _robust(scen.gains, 1e-5) if mode else scen.gains
        system = dynamics.make_plant(scen.plant, **scen.plant_kwargs)
        periods = sim._simulate(
            system, sim._build_path(scen.path_spec), scen.q0.tolist(),
            scen.qd0.tolist(), gains, 60, scen.dt, scen.substeps,
            redundancy=scen.redundancy,
            limits=scen.limits or system.default_limits,
            proj_cfg=projection.ProjectionConfig(), policy=scen.frame_policy)
        for _ in range(10):
            next(periods)
        numpy_dir = os.path.dirname(np.__file__)
        package_dir = os.path.dirname(sim.__file__)
        calls = collections.Counter()

        def from_package(frame):   # a package file, or code it generated
            name = frame.f_code.co_filename
            return name.startswith(package_dir) or name.startswith("<")

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
                name = frame.f_code.co_name
                if from_package(frame.f_back) and not name.endswith("_dispatcher"):
                    calls[name] += 1
            elif event == "c_call" and from_package(frame):
                module = (getattr(arg, "__module__", None)
                          or type(getattr(arg, "__self__", None)).__module__)
                if module.startswith("numpy"):
                    calls[arg.__name__] += 1

        sys.setprofile(profile)
        try:
            rows = [next(periods) for _ in range(50)]
        finally:
            sys.setprofile(None)
        assert dict(calls) == allowed
        for _, q, qd, u, _ in rows:
            assert all(type(x) is float for x in q + qd + u)

    @pytest.mark.parametrize("scenario", ["two_mass_line", "figure_eight_3r",
                                          "twisted_loop_4dof"])
    def test_period_builds_one_record_per_layer(self, scenario):
        """Over 50 warm periods, package code constructs one record of each
        layer per period: the projection state, the linearization and the
        diagnostics that point to them; no frame jet."""
        scen = sim.Scenario.from_file(SCENARIOS / f"{scenario}.json")
        system = dynamics.make_plant(scen.plant, **scen.plant_kwargs)
        periods = sim._simulate(
            system, sim._build_path(scen.path_spec), scen.q0.tolist(),
            scen.qd0.tolist(), scen.gains, 60, scen.dt, scen.substeps,
            redundancy=scen.redundancy,
            limits=scen.limits or system.default_limits,
            proj_cfg=projection.ProjectionConfig(), policy=scen.frame_policy)
        for _ in range(10):
            next(periods)
        package_dir = os.path.dirname(sim.__file__)
        records = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__init__":
                cls = type(frame.f_locals.get("self"))
                caller = frame.f_back.f_code.co_filename
                if (cls.__module__.startswith("splinefollow")
                        and caller.startswith(package_dir)):
                    records[cls.__name__] += 1

        sys.setprofile(profile)
        try:
            for _ in range(50):
                next(periods)
        finally:
            sys.setprofile(None)
        assert dict(records) == dict.fromkeys(
            ("ProjectionState", "LinearizationData", "StepDiagnostics"), 50)

    # measured largest differences: xi 1.8e-14, eta 9.5e-14, u 7.0e-13 and
    # zeta_1 - theta 8.0e-15; each bound is about ten times its margin
    ROTATION_BOUNDS = {"xi": 2e-13, "eta": 1e-12, "u": 1e-11, "zeta1": 1e-13}

    @pytest.mark.parametrize("theta", [0.7, -2.0])
    def test_rotated_figure_eight_is_the_same_run(self, theta):
        """Turning the figure-eight's waypoints about the arm's base by
        theta, and q0[0] and the q1 window with them, leaves the run as it
        is: xi, eta and u agree and zeta_1 is shifted by theta, each to a
        bound set from its measured margin, over 5 s; k* is identical."""
        spec = json.loads((SCENARIOS / "figure_eight_3r.json").read_text())
        logs = []
        for angle in (0.0, theta):
            d = json.loads(json.dumps(spec))
            c, s = math.cos(angle), math.sin(angle)
            d["path"]["waypoints"] = [[c * x - s * y, s * x + c * y]
                                      for x, y in spec["path"]["waypoints"]]
            d["q0"][0] += angle
            for key in ("q_min", "q_max"):
                d["limits"][key][0] += angle
            logs.append(sim.run(dataclasses.replace(sim.Scenario.from_dict(d),
                                                    duration=5.0)))
        base, turned = logs
        moved = {"xi": turned.xi - base.xi, "eta": turned.eta - base.eta,
                 "u": turned.u - base.u,
                 "zeta1": turned.zeta[:, 0] - theta - base.zeta[:, 0]}
        for name, bound in self.ROTATION_BOUNDS.items():
            assert np.abs(moved[name]).max() <= bound, name
        np.testing.assert_array_equal(turned.k_star, base.k_star)

    # measured largest differences over the four scales: q 2.2e-16,
    # qd 5.3e-16, u / s 4.1e-15, eta and lambda* 8.9e-16; each bound is ten
    # times its margin
    MASS_BOUNDS = {"q": 2.2e-15, "qd": 5.3e-15, "u": 4.1e-14, "eta": 8.9e-15,
                   "lambda_star": 8.9e-15}

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
    def test_scaled_masses_are_the_same_run(self, scale):
        """Scaling the two-mass line's masses, dampers and input limits by
        s leaves the run as it is: q, qd, eta and lambda* agree and u is
        scaled by s, each to a bound set from its measured margin; k* and
        the projection's iterations are identical."""
        spec = json.loads((SCENARIOS / "two_mass_line.json").read_text())
        limits = dynamics.make_example1().default_limits
        logs = []
        for s in (1.0, scale):
            d = dict(spec, plant_kwargs=dict.fromkeys(("m1", "m2", "b1", "b2"), s))
            d["limits"] = {"q_min": limits.q_min.tolist(), "q_max": limits.q_max.tolist(),
                           "u_min": (s * limits.u_min).tolist(),
                           "u_max": (s * limits.u_max).tolist()}
            logs.append(sim.run(sim.Scenario.from_dict(d)))
        base, scaled = logs
        moved = {"q": scaled.q - base.q, "qd": scaled.qd - base.qd,
                 "u": scaled.u / scale - base.u, "eta": scaled.eta - base.eta,
                 "lambda_star": scaled.lambda_star - base.lambda_star}
        for name, bound in self.MASS_BOUNDS.items():
            assert np.abs(moved[name]).max() <= bound, name
        np.testing.assert_array_equal(scaled.k_star, base.k_star)
        np.testing.assert_array_equal(scaled.iterations, base.iterations)

    def test_summary_and_boundedness(self, example1):
        scen = _example1_scenario(duration=4.0)
        log = sim.run(scen)
        s = log.summary(limits=example1.default_limits)
        assert s["joint_limit_violations"] == 0
        assert s["max_zeta_norm"] < 100.0


class TestPlanar3RKinematics:
    def test_ik_round_trip(self, example2):
        rng = np.random.default_rng(9)
        for _ in range(8):
            y = rng.uniform(-1.2, 1.2, 2)
            z1 = rng.uniform(-1.0, 1.0)
            wrist = y - np.array([np.cos(z1), np.sin(z1)])
            if not 0.2 < np.linalg.norm(wrist) < 1.9:
                continue
            for elbow in ("up", "down"):
                q = sim.ik_planar3r(y, z1, elbow=elbow)
                np.testing.assert_allclose(example2.h(q), y, atol=1e-10)
                assert q.sum() == pytest.approx(z1, abs=1e-10)

    def test_ik_unreachable(self):
        with pytest.raises(ParameterError):
            sim.ik_planar3r([5.0, 0.0], 0.0)

    def test_zero_dynamics_state_invariants(self, example2):
        path = curves.circle_path(radius=2.2, span=(-2.2 * np.pi, 2.2 * np.pi))
        st, ps = sim.zero_dynamics_state(
            example2, path, np.array([0.4, 0.7]), eta1_ref=np.pi * 2.2
        )
        # output on the path, at rest; redundant rate matches zeta_2
        np.testing.assert_allclose(
            example2.h(st.q), path.evaluate(ps.k_star, ps.lambda_star, 0),
            atol=1e-9,
        )
        np.testing.assert_allclose(example2.J(st.q) @ st.qd, 0.0, atol=1e-12)
        assert st.qd.sum() == pytest.approx(0.7, abs=1e-12)
        # the plant's own completion matrix: Z q = zeta_1, Z qd = zeta_2
        np.testing.assert_allclose(example2.Z @ st.q, [0.4], atol=1e-12)
        np.testing.assert_allclose(example2.Z @ st.qd, [0.7], atol=1e-12)

    def test_straight_arm_raises_a_typed_error(self, example2):
        """At zeta = 0 on the radius-3 circle the arm is straight: [J; Z] is singular."""
        with pytest.raises(SingularManifoldError, match="zeta") as exc:
            sim.zero_dynamics_state(example2, curves.circle_path(3.0), (0.0, 0.0))
        assert isinstance(exc.value, NumericalFailure)
        assert exc.value.zeta == (0.0, 0.0)

    def test_point_on_path_matches_brentq(self, fig8_path):
        from scipy.optimize import brentq

        radius = 2.2
        circle = curves.circle_path(radius, span=(-np.pi * radius, np.pi * radius))
        cases = [(circle, s) for s in (np.pi * radius, 1.0, 13.0)]
        cases += [(fig8_path, s) for s in
                  np.linspace(0.05, fig8_path.arclength_offsets[-1] - 0.05, 7)]
        for path, eta1 in cases:
            ps = sim._point_on_path(path, eta1)
            k = ps.k_star
            target = eta1 - path.arclength_offsets[k]
            want = brentq(lambda lam: path.arclength(k, lam) - target,
                          *path.segments[k].domain, xtol=1e-12)
            assert abs(ps.lambda_star - want) <= 1e-12


def _criterion3_portrait(system, grid, sim_duration):
    """Criterion 3's held point, limits and gains on the radius-2.2 circle."""
    radius = 2.2
    path = curves.circle_path(radius, span=(-np.pi * radius, np.pi * radius))
    q0 = sim.ik_planar3r((radius, 0.0), 0.0)
    limits = dynamics.Limits(
        q_min=q0 - 1.0, q_max=q0 + 1.0, u_min=[-10.0] * 3, u_max=[10.0] * 3
    )
    gains = control.OuterLoopGains(
        tangential_mode="position", K_P=20.0, K_D=9.0,
        eta1_ref=np.pi * radius, xi_Kp=(40.0,), xi_Kd=(13.0,),
    )
    return sim.zero_dynamics_portrait(
        system, path, gains, np.asarray(grid), limits=limits,
        eta1_ref=np.pi * radius, sim_duration=sim_duration,
    )


class TestPortrait:
    def test_flow_roots_match_brentq(self, example2):
        """Interior equilibria are the flow's roots to brentq's xtol."""
        from scipy.optimize import brentq

        portrait = _criterion3_portrait(example2, [[-0.6, 0.0], [1.25, 0.0]], 0.02)
        scan = np.linspace(-0.6, 1.25, 400)
        interior = [e["zeta"][0] for e in portrait.equilibria if not e["boundary"]]
        assert interior
        for z1 in interior:
            i = int(np.searchsorted(scan, z1)) - 1
            want = brentq(lambda z: portrait.field(np.array([z, 0.0]))[1],
                          scan[i], scan[i + 1], xtol=1e-12)
            assert abs(z1 - want) <= 1e-12

    def test_small_grid_and_files(self, example2, tmp_path):
        grid = [[0.1, 0.0], [-0.2, 0.2], [0.4, -0.3], [2.5, 0.0]]
        portrait = _criterion3_portrait(example2, grid, 1.0)
        # the last grid point is kinematically infeasible
        assert portrait.failed[3]
        assert not portrait.failed[:3].any()
        assert len(portrait.equilibria) >= 1
        csv_f = tmp_path / "flows.csv"
        json_f = tmp_path / "eq.json"
        sim.portrait_to_files(portrait, str(csv_f), str(json_f))
        eq = json.loads(json_f.read_text())
        assert eq["grid_points"] == 4
        assert eq["failed_grid_points"] == 1

    @pytest.mark.parametrize("axis", [0, 1], ids=["zeta1", "zeta2"])
    def test_classification_falls_back_to_one_sided_differences(self, axis):
        """Where the field raises on one side of an equilibrium, within the
        difference step h = 1e-5, the slope along that axis is one-sided
        from the centre, and the eigenvalues are the linear field's."""
        # no midpoint of the root's bisection falls in the band for this z1_eq
        a, b, z1_eq = -4.0, -1.0, 0.5
        raised = []

        def field(zeta):   # zeta_1' = zeta_2, zeta_2' = a (zeta_1 - z1_eq) + b zeta_2
            offset = zeta[axis] - (z1_eq if axis == 0 else 0.0)
            if 0.5e-5 < offset < 2e-5:
                raised.append(offset)
                raise SingularManifoldError("inside the band", zeta=tuple(zeta))
            return np.array([zeta[1], a * (zeta[0] - z1_eq) + b * zeta[1]])

        eqs = sim._find_equilibria(field, np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert raised   # the difference's step reached into the band
        assert len(eqs) == 1 and not eqs[0]["boundary"]
        assert eqs[0]["zeta"][0] == pytest.approx(z1_eq, abs=1e-12)
        want = np.sort_complex(np.roots([1.0, -b, -a]))   # of [[0, 1], [a, b]]
        np.testing.assert_allclose(np.sort_complex(eqs[0]["eigenvalues"]), want,
                                   rtol=1e-6)
        assert eqs[0]["stable"]

    @pytest.mark.parametrize("band", [(5e-6, 2e-5), (-2e-5, -5e-6)],
                             ids=["above", "below"])
    def test_interior_search_reads_the_rate(self, band):
        """Where the field raises strictly between two feasible scan points,
        next to a root, the bisection and the residual check read NaN there
        instead of raising, and the bisection keeps the half that holds
        the root, on either side of it."""
        a, b, z1_eq = -4.0, -1.0, 0.3037
        raised = []

        def field(zeta):   # zeta_1' = zeta_2, zeta_2' = a (zeta_1 - z1_eq) + b zeta_2
            offset = zeta[0] - z1_eq
            if band[0] < offset < band[1]:
                raised.append(offset)
                raise SingularManifoldError("inside the band", zeta=tuple(zeta))
            return np.array([zeta[1], a * offset + b * zeta[1]])

        eqs = sim._find_equilibria(field, np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert raised   # the bisection reached into the band
        assert len(eqs) == 1
        assert eqs[0]["zeta"][0] == pytest.approx(z1_eq, abs=1e-12)

    def test_robust_gains_must_fit_the_plant(self, example2):
        """The portrait checks robust gains as run does, before any flow."""
        radius = 2.2
        path = curves.circle_path(radius, span=(-np.pi * radius, np.pi * radius))
        K = ((-40.0, -13.0, 0.0, 0.0), (0.0, 0.0, -40.0, -13.0))   # p = 3
        zero = np.zeros((2, 4)).tolist()
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=20.0, K_D=9.0, eta1_ref=np.pi * radius,
            transversal_mode="robust", robust_K=K, robust_K0=zero, robust_K2=zero)
        with pytest.raises(ParameterError, match="must be 1 x 2 for plant"):
            sim.zero_dynamics_portrait(example2, path, gains, [[0.1, 0.0]],
                                       eta1_ref=np.pi * radius, sim_duration=0.02)

    def test_path_must_fit_the_plant(self, example2):
        """The portrait checks the path's dimension as run does, before any
        flow."""
        gains = control.OuterLoopGains(tangential_mode="position", K_P=20.0, K_D=9.0,
                                       xi_Kp=(40.0,), xi_Kd=(13.0,))
        with pytest.raises(ParameterError, match="path dimension 3 must equal the p = 2"):
            sim.zero_dynamics_portrait(example2, curves.helix_path(), gains,
                                       [[0.1, 0.0], [0.2, 0.0]], sim_duration=0.02)

    @pytest.mark.parametrize("plant", ["example1", "cpm4", "example2-Z011"])
    @pytest.mark.parametrize("entry", ["state", "portrait"])
    def test_plant_must_be_the_planar_3r_arm(self, request, monkeypatch, plant, entry):
        """The manifold's states come from the unit-link planar 3R arm's
        inverse kinematics, so any other plant (N, p or Z) raises
        ParameterError naming it before the first flow or field
        evaluation."""
        if plant == "example2-Z011":
            system = dataclasses.replace(request.getfixturevalue("example2"),
                                         Z=np.array([[0.0, 1.0, 1.0]]))
        else:
            system = request.getfixturevalue(plant)
        path = {1: curves.line_path([-5.0], [5.0]), 2: curves.circle_path(2.2),
                3: curves.helix_path()}[system.p]

        def evaluated(*args):
            raise AssertionError("a manifold state was built")

        monkeypatch.setattr(sim, "_manifold_state", evaluated)
        message = (f"plant {system.name!r} has N = {system.N}, p = {system.p}, "
                   f"Z = {system.Z_rows}")
        with pytest.raises(ParameterError, match=re.escape(message)):
            if entry == "state":
                sim.zero_dynamics_state(system, path, (0.4, 0.3), eta1_ref=6.0)
            else:
                sim.zero_dynamics_portrait(
                    system, path, control.OuterLoopGains(tangential_mode="position"),
                    [[0.1, 0.0], [0.4, 0.3]], eta1_ref=6.0, sim_duration=0.02)

    @staticmethod
    def _check_field_is_the_closed_loop_law(system):
        """The field's zeta_2 rate is Z qdd under control.step's u."""
        radius = 2.2
        path = curves.circle_path(radius, span=(-np.pi * radius, np.pi * radius))
        q0 = sim.ik_planar3r((radius, 0.0), 0.0)
        limits = dynamics.Limits(
            q_min=q0 - 1.0, q_max=q0 + 1.0, u_min=[-10.0] * 3, u_max=[10.0] * 3
        )
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=20.0, K_D=9.0,
            eta1_ref=np.pi * radius, xi_Kp=(40.0,), xi_Kd=(13.0,),
        )
        # the portrait's field and manifold states, built directly: its
        # public entry points take only the planar 3R arm's Z = (1, 1, 1)
        ps = sim._point_on_path(path, np.pi * radius)
        field = sim._zero_dynamics_field(system, path, gains, limits, ps)
        for zeta in ([0.4, 0.3], [-0.2, -0.5], [0.9, 0.0]):
            zeta = np.array(zeta)
            q, qd = sim._manifold_state(system, path, ps, zeta)
            u, _, _ = control.step(
                system, path, q, qd, ps, 0.0, gains, limits=limits, dt=0.02, t=0.0,
            )
            qdd = dynamics.acceleration(system, q, qd, u)
            flow = field(zeta)
            assert flow[0] == zeta[1]
            assert flow[1] == pytest.approx(system.Z[0] @ qdd, abs=1e-9)

    def test_field_is_the_closed_loop_law(self, example2):
        """The field's zeta_2 rate is the plant's under control.step's u."""
        self._check_field_is_the_closed_loop_law(example2)

    def test_field_rate_uses_the_plants_completion(self, example2):
        """With Z other than (1, 1, 1) the rate is Z qdd, not the sum of qdd."""
        system = dataclasses.replace(example2, Z=np.array([[0.0, 1.0, 1.0]]))
        self._check_field_is_the_closed_loop_law(system)

    def test_field_takes_qdd_from_the_plants_solve(self, example2):
        """The field's rate is Z qdd with qdd from dynamics.acceleration, the
        solve the flows' RK4 stages call, and u that of the period's pieces
        (linearize, then the input layer): the same floats, bit for bit."""
        radius = 2.2
        path = curves.circle_path(radius, span=(-np.pi * radius, np.pi * radius))
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=20.0, K_D=9.0,
            eta1_ref=np.pi * radius, xi_Kp=(40.0,), xi_Kd=(13.0,),
        )
        limits = example2.default_limits
        ps = sim._point_on_path(path, np.pi * radius)
        field = sim._zero_dynamics_field(example2, path, gains, limits, ps)
        for zeta in ([0.4, 0.3], [-0.2, -0.5], [0.9, 0.0], [1.1, 0.7], [-0.6, 0.2]):
            zeta = np.array(zeta)
            q, qd = sim._manifold_state(example2, path, ps, zeta)
            u = oracles.period_pieces(example2, path, q, qd, ps, 0.0, gains,
                                      sim.PORTRAIT_REDUNDANCY, limits, frames.FRENET,
                                      sim.PORTRAIT_DT, 0.0)[1]
            qdd = dynamics.acceleration(example2, q, qd, u)
            want = [float(zeta[1]), frames.dot(example2.Z_rows[0], qdd)]
            assert repr(field(zeta).tolist()) == repr(want)
