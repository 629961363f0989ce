"""Path coordinates and feedback-linearization quantities.

The key oracle: integrating the plant under a known input, the measured
second derivatives of eta_1 and xi_1 must match alpha + beta u.
"""

import numpy as np
import pytest

from splinefollow import curves, dynamics, projection, sim, transform
from splinefollow.dynamics import State


def _project(path, system, q):
    return projection.global_initialize(path, system.h(q))


class TestCoordinates:
    def test_on_path_state_has_zero_xi(self, fig8_path, example2):
        k, lam = 2, 0.5 * sum(fig8_path.segments[2].domain)
        y = fig8_path.evaluate(k, lam, 0)
        q = sim.ik_planar3r(y, 0.4)
        st = State(q=q, qd=np.zeros(3))
        ps = _project(fig8_path, example2, q)
        T = transform.to_transformed(example2, st, fig8_path, ps)
        np.testing.assert_allclose(T.xi, 0.0, atol=1e-8)
        assert T.eta[1] == pytest.approx(0.0, abs=1e-12)

    def test_eta1_is_arclength(self, fig8_path, example2):
        k, lam = 3, 0.7 * fig8_path.segments[3].domain[1]
        y = fig8_path.evaluate(k, lam, 0)
        q = sim.ik_planar3r(y, 0.4)
        ps = _project(fig8_path, example2, q)
        T = transform.to_transformed(example2, State(q=q, qd=np.zeros(3)),
                                     fig8_path, ps)
        want = fig8_path.arclength_offsets[k] + fig8_path.arclength(k, lam)
        assert T.eta[0] == pytest.approx(want, abs=1e-5)

    def test_xi1_is_signed_offset(self, example2):
        path = curves.circle_path(radius=2.0, span=(0.0, 4.0 * np.pi))
        # tip 0.1 outside the circle: offset along -e2 (outward) for a CCW circle
        q = sim.ik_planar3r((2.1, 0.0), 0.5)
        ps = _project(path, example2, q)
        T = transform.to_transformed(example2, State(q=q, qd=np.zeros(3)),
                                     path, ps)
        assert abs(abs(T.xi[0, 0]) - 0.1) < 1e-6

    def test_zeta_is_completion(self, example2):
        path = curves.circle_path(radius=2.0, span=(0.0, 4.0 * np.pi))
        q = sim.ik_planar3r((2.0, 0.0), 0.3)
        qd = np.array([0.1, 0.2, -0.3])
        ps = _project(path, example2, q)
        T = transform.to_transformed(example2, State(q=q, qd=qd), path, ps)
        np.testing.assert_allclose(T.zeta, [q.sum(), qd.sum()], atol=1e-12)

    def test_flat_layout(self, example2):
        path = curves.circle_path(radius=2.0, span=(0.0, 4.0 * np.pi))
        q = sim.ik_planar3r((2.0, 0.0), 0.3)
        ps = _project(path, example2, q)
        T = transform.to_transformed(example2, State(q=q, qd=np.zeros(3)),
                                     path, ps)
        flat = T.flat()
        assert flat.shape == (2 * example2.N,)


class TestExample1Linearization:
    def test_alpha_beta_closed_form(self, example1):
        """For the two-mass plant: qdd_2 = (u_2 + b2 (qd_1 - qd_2)) / m2."""
        path = curves.line_path([-5.0], [5.0])
        policy_state = State(q=[0.4, 1.0], qd=[0.3, -0.2])
        ps = projection.ProjectionState(k_star=0, lambda_star=6.0)
        lin = transform.linearize(example1, policy_state, path, ps)
        b2 = 1.0
        want_alpha = b2 * (policy_state.qd[0] - policy_state.qd[1])
        assert lin.alpha[0] == pytest.approx(want_alpha, abs=1e-12)
        np.testing.assert_allclose(lin.beta, [[0.0, 1.0]], atol=1e-12)


class TestLieDerivativeOracle:
    @pytest.mark.parametrize("offset", [0.0, 0.03])
    def test_xi1_second_derivative(self, fig8_path, example2, offset):
        """d2 xi_1 / dt2 under constant u matches alpha_xi + beta_xi u."""
        from splinefollow import frames

        policy = frames.FramePolicy(mode="planar_fallback")
        k, lam = 5, 0.4 * fig8_path.segments[5].domain[1]
        y = fig8_path.evaluate(k, lam, 0)
        fj = frames.frame_jet(fig8_path, k, lam, policy)
        q = sim.ik_planar3r(y + offset * fj.e[1], 0.2)
        qd = np.linalg.solve(
            np.vstack([example2.J(q), np.ones((1, 3))]),
            np.array([0.15 * fj.e[0, 0], 0.15 * fj.e[0, 1], 0.1]),
        )
        st = State(q=q, qd=qd)
        u = np.array([0.5, -0.3, 0.2])
        cfg = projection.ProjectionConfig(alpha0=1e-4)
        ps = projection.global_initialize(fig8_path, example2.h(q), cfg)
        lin = transform.linearize(example2, st, fig8_path, ps, policy)

        def xi1_at(state, pstate):
            pstate = projection.update(pstate, fig8_path, example2.h(state.q), cfg)
            T = transform.to_transformed(example2, state, fig8_path, pstate, policy)
            return T.xi[0], pstate

        h = 1e-4
        sp = sim._rk4_hold(example2, st, u, h / 4, 4)
        sm = sim._rk4_hold(example2, st, u, -h / 4, 4)
        x0, _ = xi1_at(st, ps)
        xp, _ = xi1_at(sp, ps)
        xm, _ = xi1_at(sm, ps)
        fd = (xp - 2.0 * x0 + xm) / h**2
        want = (lin.alpha + lin.beta @ u)[1:]
        np.testing.assert_allclose(fd, want, atol=5e-3)


class TestCheckDifferentials:
    def test_independent_on_path(self, fig8_path, example2):
        from splinefollow import frames

        policy = frames.FramePolicy(mode="planar_fallback")
        k, lam = 4, 0.5 * fig8_path.segments[4].domain[1]
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0), 0.3)
        ps = projection.ProjectionState(k_star=k, lambda_star=lam)
        rep = transform.check_differentials(
            example2, State(q=q, qd=np.zeros(3)), fig8_path, ps, policy
        )
        assert rep.independent
        assert rep.min_sv_position > 1e-3
        assert rep.min_sv_velocity > 1e-3

    def test_shapes(self, fig8_path, example2):
        from splinefollow import frames

        policy = frames.FramePolicy(mode="planar_fallback")
        k = 1
        lam = 0.3 * fig8_path.segments[1].domain[1]
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0), 0.3)
        ps = projection.ProjectionState(k_star=k, lambda_star=lam)
        rep = transform.check_differentials(
            example2, State(q=q, qd=np.zeros(3)), fig8_path, ps, policy
        )
        assert rep.position_rows.shape == (2, 3)
        assert rep.velocity_rows.shape == (2, 3)
