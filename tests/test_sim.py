"""Closed-loop simulation plumbing: integrator, scenarios, logs, portraits."""

import dataclasses
import json

import numpy as np
import pytest

from pathlib import Path

from splinefollow import control, curves, dynamics, projection, sim
from splinefollow.dynamics import State
from splinefollow.errors import (
    DivergenceError,
    NonConvergenceError,
    ParameterError,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


class TestIntegrator:
    def test_rk4_order_on_linear_system(self, example1):
        """Halving the step shrinks the error by ~16 (4th order)."""
        st = State(q=[0.3, -0.2], qd=[0.5, 0.1])
        u = np.array([0.7, -0.4])
        ref = sim._rk4_hold(example1, st, u, 1e-4, 10000)
        errs = []
        for substeps in (2, 4):
            out = sim._rk4_hold(example1, st, u, 1.0 / substeps, substeps)
            errs.append(
                np.linalg.norm(np.concatenate([out.q - ref.q, out.qd - ref.qd]))
            )
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_zero_input_at_rest_stays(self, example2):
        st = State(q=[0.1, 0.2, 0.3], qd=np.zeros(3))
        out = sim._rk4_hold(example2, st, np.zeros(3), 0.01, 10)
        np.testing.assert_allclose(out.q, st.q, atol=1e-12)


class TestScenario:
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
    def test_robust_log_matches_gains_rebuilt_per_call(self, scenario, mu,
                                                       monkeypatch):
        """Gains converted once give the log, bit for bit, of gains rebuilt
        from the tuples at every period; mu puts both switched branches in."""
        scen = sim.Scenario.from_file(SCENARIOS / f"{scenario}.json")
        scen = dataclasses.replace(scen, duration=0.5)
        m = len(scen.gains.xi_Kp)
        K = np.kron(np.eye(m), [[-scen.gains.xi_Kp[0], -scen.gains.xi_Kd[0]]])
        robust = dataclasses.replace(
            scen.gains, transversal_mode="robust", robust_mu=mu,
            robust_K=K.tolist(), robust_K0=(0.1 * K).tolist(),
            robust_K2=(0.1 / mu * K).tolist())
        scen = dataclasses.replace(scen, gains=robust)
        log = sim.run(scen)

        branches = set()

        def rebuilt(xi, gains):
            z = np.asarray(xi, dtype=float).reshape(2, -1).T.ravel()
            K, K0, K2 = (np.atleast_2d(np.asarray(g, dtype=float))
                         for g in (gains.robust_K, gains.robust_K0, gains.robust_K2))
            K1 = gains.robust_mu**2 * K2
            nz = np.linalg.norm(z)
            branches.add(bool(nz >= gains.robust_mu))
            sw = (K1 @ z) / nz if nz >= gains.robust_mu else nz * (K2 @ z)
            return ((K + K0) @ z + sw).tolist()

        monkeypatch.setattr(control, "transversal_v", rebuilt)
        ref = sim.run(scen)
        assert branches == {True, False}
        for name in ("q", "qd", "u", "eta", "xi", "zeta", "lambda_star"):
            assert np.array_equal(getattr(log, name), getattr(ref, name)), name

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

    def test_quantized_measurement(self):
        scen = _example1_scenario(encoder_resolution=np.array([1e-4, 1e-4]))
        log = sim.run(scen)
        assert np.isfinite(log.u).all()

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


class TestPortrait:
    def test_small_grid_and_files(self, example2, tmp_path):
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
        grid = np.array([[0.1, 0.0], [-0.2, 0.2], [0.4, -0.3], [2.5, 0.0]])
        portrait = sim.zero_dynamics_portrait(
            example2, path, gains, grid, limits=limits,
            eta1_ref=np.pi * radius, sim_duration=1.0,
        )
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
        portrait = sim.zero_dynamics_portrait(
            system, path, gains, np.array([[0.4, 0.3], [0.5, 0.3]]),
            limits=limits, eta1_ref=np.pi * radius, sim_duration=0.02,
        )
        for zeta in ([0.4, 0.3], [-0.2, -0.5], [0.9, 0.0]):
            zeta = np.array(zeta)
            st, ps = sim.zero_dynamics_state(
                system, path, zeta, eta1_ref=np.pi * radius
            )
            u, _, _, _ = control.step(
                system, path, st, ps, control.ControllerState(), gains,
                limits=limits, dt=0.02, t=0.0,
            )
            qdd = dynamics.acceleration(system, st.q, st.qd, u)
            flow = portrait.field(zeta)
            assert flow[0] == zeta[1]
            assert flow[1] == pytest.approx(system.Z[0] @ qdd, abs=1e-9)

    def test_field_is_the_closed_loop_law(self, example2):
        """The field's zeta_2 rate is the plant's under control.step's u."""
        self._check_field_is_the_closed_loop_law(example2)

    def test_field_rate_uses_the_plants_completion(self, example2):
        """With Z other than (1, 1, 1) the rate is Z qdd, not the sum of qdd."""
        system = dataclasses.replace(example2, Z=np.array([[0.0, 1.0, 1.0]]))
        self._check_field_is_the_closed_loop_law(system)
