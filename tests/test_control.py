"""Outer loops and the constrained-least-squares input resolution."""

import numpy as np
import pytest

from splinefollow import control, curves, dynamics, projection
from splinefollow.dynamics import Limits, State
from splinefollow.errors import NearSingularDecouplingError, ParameterError


def _kkt_oracle(alpha, beta, v, r, W):
    """Solve min (u-r)' W (u-r) s.t. beta u = v - alpha via the KKT system."""
    p, N = beta.shape
    K = np.block([[W, beta.T], [beta, np.zeros((p, p))]])
    rhs = np.concatenate([W @ r, v - alpha])
    sol = np.linalg.solve(K, rhs)
    return sol[:N]


class TestResolveInput:
    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            N = int(rng.integers(2, 6))
            p = int(rng.integers(1, N))
            beta = rng.normal(size=(p, N))
            if np.linalg.cond(beta @ beta.T) > 1e6:
                continue
            alpha = rng.normal(size=p)
            v = rng.normal(size=p)
            r = rng.normal(size=N)
            L = rng.normal(size=(N, N))
            W = L @ L.T + N * np.eye(N)
            u = control.resolve_input(alpha, beta, v, r, W)
            np.testing.assert_allclose(
                u, _kkt_oracle(alpha, beta, v, r, W), atol=1e-8
            )

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(13)
        beta = rng.normal(size=(2, 4))
        alpha, v, r = rng.normal(size=2), rng.normal(size=2), rng.normal(size=4)
        u = control.resolve_input(alpha, beta, v, r)
        np.testing.assert_allclose(beta @ u + alpha, v, atol=1e-12)

    def test_null_space_identity(self):
        """With v = alpha and r in the row space, u has no null component."""
        rng = np.random.default_rng(14)
        beta = rng.normal(size=(2, 4))
        r_row = beta.T @ rng.normal(size=2)
        u = control.resolve_input(np.zeros(2), beta, np.zeros(2), r_row)
        # u solves beta u = 0 with minimum W-distance to r_row: u = P r_row
        P = np.eye(4) - np.linalg.pinv(beta) @ beta
        np.testing.assert_allclose(u, P @ r_row, atol=1e-12)

    def test_square_beta_ignores_bias(self):
        rng = np.random.default_rng(15)
        beta = rng.normal(size=(3, 3))
        alpha, v = rng.normal(size=3), rng.normal(size=3)
        u1 = control.resolve_input(alpha, beta, v, np.zeros(3))
        u2 = control.resolve_input(alpha, beta, v, rng.normal(size=3))
        np.testing.assert_allclose(u1, u2, atol=1e-10)
        np.testing.assert_allclose(u1, np.linalg.solve(beta, v - alpha), atol=1e-10)

    @pytest.mark.parametrize("beta", [
        [[0.0, 0.0, 0.0]],
        [[1.0, 0.0], [1.0, 1e-14]],
        [[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
         [1.0, 3.0, 1.0, 1.0]],                  # row 3 = row 1 + row 2
    ], ids=["p1", "p2", "p3"])
    def test_near_singular_raises(self, beta):
        p, N = np.shape(beta)
        with pytest.raises(NearSingularDecouplingError):
            control.resolve_input(np.zeros(p), beta, np.zeros(p), np.zeros(N))

    @pytest.mark.parametrize("p", [2, 3])
    def test_reported_cond_is_the_2_norm_cond(self, p):
        """cond from the eigenvalues of M matches np.linalg.cond(M)."""
        W = np.diag([2.0, 0.5, 1.0, 4.0])
        beta = np.zeros((p, 4))
        beta[np.arange(p), np.arange(p)] = 10.0 ** -(6.0 * np.arange(p))
        M = beta @ np.linalg.solve(W, beta.T)
        with pytest.raises(NearSingularDecouplingError) as exc:
            control.resolve_input(np.zeros(p), beta, np.zeros(p), np.zeros(4), W)
        want = np.linalg.cond(M)
        assert want > control.CONDITION_LIMIT
        assert exc.value.cond == pytest.approx(want, rel=1e-6)
        assert f"{exc.value.cond:.3e}" in str(exc.value)

    def test_non_finite_decoupling_raises(self):
        beta = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NearSingularDecouplingError):
            control.resolve_input(np.zeros(2), beta, np.zeros(2), np.zeros(2))

    def test_invalid_weight_rejected(self):
        with pytest.raises(ParameterError):
            control.RedundancyConfig(W=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ParameterError):
            control.RedundancyConfig(W=np.ones((2, 3)))
        with pytest.raises(ParameterError, match="symmetric"):
            control.RedundancyConfig(W=np.array([[2.0, 0.5], [0.0, 2.0]]))

    def test_unknown_bias_mode_rejected(self):
        with pytest.raises(ParameterError, match="bias_mode"):
            control.RedundancyConfig(bias_mode="midrange")


class TestBias:
    def test_endpoints(self):
        limits = Limits(q_min=[-1.0], q_max=[3.0], u_min=[-5.0], u_max=[5.0])
        assert control.bias_r([-1.0], limits)[0] == pytest.approx(5.0)
        assert control.bias_r([3.0], limits)[0] == pytest.approx(-5.0)
        assert control.bias_r([1.0], limits)[0] == pytest.approx(0.0)


class TestTangential:
    def test_position_mode(self):
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=4.0, K_D=3.0, eta1_ref=2.0
        )
        v, st = control.tangential_v(
            np.array([1.5, 0.2]), control.ControllerState(), gains, dt=0.02
        )
        assert v == pytest.approx(4.0 * 0.5 - 3.0 * 0.2)
        assert st.integral == 0.0

    def test_velocity_mode_integrates(self):
        gains = control.OuterLoopGains(K_P=2.0, K_I=1.0, eta2_ref=1.0)
        st = control.ControllerState()
        v, st = control.tangential_v(np.array([0.0, 0.0]), st, gains, dt=0.1)
        assert st.integral == pytest.approx(0.1)
        assert v == pytest.approx(2.0 + 0.1)

    def test_anti_windup_clamp(self):
        gains = control.OuterLoopGains(
            K_P=1.0, K_I=1.0, eta2_ref=100.0, integral_limit=0.5
        )
        st = control.ControllerState()
        for _ in range(50):
            _, st = control.tangential_v(np.array([0.0, 0.0]), st, gains, dt=1.0)
        assert st.integral == pytest.approx(0.5)

    def test_reference_table(self):
        gains = control.OuterLoopGains(
            eta2_ref_table=((0.0, 0.0), (1.0, 2.0))
        )
        assert gains.eta2_reference(0.5) == pytest.approx(1.0)
        assert gains.eta2_reference(5.0) == pytest.approx(2.0)


class TestTransversal:
    def test_pd_componentwise(self):
        gains = control.OuterLoopGains(xi_Kp=(10.0, 20.0), xi_Kd=(1.0, 2.0))
        xi = np.array([[0.1, -0.2], [0.3, 0.4]])
        v = control.transversal_v(xi, gains)
        np.testing.assert_allclose(v, [-10 * 0.1 - 1 * 0.3, 20 * 0.2 - 2 * 0.4])

    def test_robust_continuous_at_boundary_layer(self):
        mu = 0.05
        gains = control.OuterLoopGains(
            transversal_mode="robust",
            robust_K=((-3.0, -1.0),),
            robust_K0=((0.0, 0.0),),
            robust_K2=((-2.0, -0.5),),
            robust_mu=mu,
        )
        direction = np.array([0.6, 0.8])
        inner = control.transversal_v((mu - 1e-9) * direction, gains)
        outer = control.transversal_v((mu + 1e-9) * direction, gains)
        np.testing.assert_allclose(inner, outer, atol=1e-7)

    @pytest.mark.parametrize("gains", [
        {},                                                # default K2 = 0.0
        {"robust_K": ((-1.0,),), "robust_K0": ((0.0,),), "robust_K2": ((0.0,),)},
        {"robust_K": ((-1.0, -1.0),), "robust_K0": ((0.0, 0.0),),
         "robust_K2": 0.0},
        {"robust_K": ((-1.0, -1.0), (0.0,)), "robust_K0": ((0.0, 0.0),),
         "robust_K2": ((0.0, 0.0),)},
    ], ids=["defaults", "1x1", "K2-disagrees", "ragged"])
    def test_robust_gain_shapes_validated(self, gains):
        """K, K0 and K2 must share one (p - 1) x 2(p - 1) shape."""
        with pytest.raises(ParameterError, match="robust gains"):
            control.OuterLoopGains(transversal_mode="robust", **gains)

    def test_robust_shape(self):
        K = ((-1.0, -1.0, 0.0, 0.0), (0.0, 0.0, -1.0, -1.0))
        gains = control.OuterLoopGains(transversal_mode="robust", robust_K=K,
                                       robust_K0=K, robust_K2=K)
        assert gains.robust_shape == (2, 4)
        v = control.transversal_v(np.array([[0.1, 0.2], [0.3, 0.4]]), gains)
        assert len(v) == 2

    def test_gain_validation(self):
        with pytest.raises(ParameterError):
            control.OuterLoopGains(xi_Kp=(0.0,))
        with pytest.raises(ParameterError):
            control.OuterLoopGains(tangential_mode="bang-bang")
        with pytest.raises(ParameterError, match="transversal_mode"):
            control.OuterLoopGains(transversal_mode="sliding")
        for gain in ("K_P", "K_I", "K_D"):
            with pytest.raises(ParameterError, match="nonnegative"):
                control.OuterLoopGains(**{gain: -1.0})
        for mu in (0.0, -0.01):
            with pytest.raises(ParameterError, match="mu must be positive"):
                control.OuterLoopGains(robust_mu=mu)


class TestStep:
    def test_example1_first_input_is_bias(self, example1):
        """On the line path, u_1 never fights the bias: beta = [0, 1/m2]."""
        path = curves.line_path([-5.0], [5.0])
        st = State(q=[0.5, 0.0], qd=[0.0, 0.0])
        ps = projection.global_initialize(path, example1.h(st.q))
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=4.0, K_D=3.0, eta1_ref=6.0
        )
        u, _, _, diag = control.step(
            example1, path, st, ps, control.ControllerState(), gains
        )
        r = control.bias_r(st.q, example1.default_limits)
        assert u[0] == pytest.approx(r[0], abs=1e-10)
        assert not diag.saturated

    def test_weighted_step_matches_kkt_oracle(self, example2, fig8_path):
        """A closed-loop step with W != I resolves u as the KKT system does."""
        from splinefollow import frames, sim, transform

        policy = frames.FramePolicy(mode="planar_fallback")
        k, lam = 3, 0.6 * fig8_path.segments[3].domain[1]
        fj = frames.frame_jet(fig8_path, k, lam, policy)
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0) + 0.02 * fj.e[1], 0.3)
        st = State(q=q, qd=[0.1, -0.2, 0.15])
        ps = projection.global_initialize(fig8_path, example2.h(q))
        L = np.array([[1.0, 0.0, 0.0], [0.4, 1.2, 0.0], [-0.3, 0.2, 0.7]])
        red = control.RedundancyConfig(W=L @ L.T)
        gains = control.OuterLoopGains(eta2_ref=0.2, K_P=5.0, K_I=2.0,
                                       xi_Kp=(150.0,), xi_Kd=(30.0,))
        limits = example2.default_limits
        u, ps_new, _, diag = control.step(
            example2, fig8_path, st, ps, control.ControllerState(), gains,
            redundancy=red, limits=limits, policy=policy)
        lin = transform.linearize(example2, st, fig8_path, ps_new, policy)
        want = _kkt_oracle(lin.alpha, lin.beta, diag.v,
                           np.array(control.bias_r(q, limits)), red.W)
        np.testing.assert_allclose(diag.u_unclamped, want, atol=1e-8)
        assert not diag.saturated
        np.testing.assert_allclose(u, want, atol=1e-8)

    def test_zero_bias_step_matches_kkt_oracle(self, example2, fig8_path):
        """With bias_mode "zero", u is the KKT solution with r = 0."""
        from splinefollow import frames, sim, transform

        policy = frames.FramePolicy(mode="planar_fallback")
        k, lam = 6, 0.3 * fig8_path.segments[6].domain[1]
        fj = frames.frame_jet(fig8_path, k, lam, policy)
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0) - 0.02 * fj.e[1], 0.2)
        st = State(q=q, qd=[-0.1, 0.2, 0.05])
        ps = projection.global_initialize(fig8_path, example2.h(q))
        red = control.RedundancyConfig(bias_mode="zero")
        gains = control.OuterLoopGains(eta2_ref=0.2, K_P=5.0, K_I=2.0,
                                       xi_Kp=(150.0,), xi_Kd=(30.0,))
        u, ps_new, _, diag = control.step(
            example2, fig8_path, st, ps, control.ControllerState(), gains,
            redundancy=red, policy=policy)
        lin = transform.linearize(example2, st, fig8_path, ps_new, policy)
        want = _kkt_oracle(lin.alpha, lin.beta, diag.v, np.zeros(3), np.eye(3))
        np.testing.assert_allclose(diag.u_unclamped, want, atol=1e-8)
        # the joint-limit bias moves u within beta's null space
        biased = control.step(example2, fig8_path, st, ps,
                              control.ControllerState(), gains, policy=policy)[3]
        assert np.abs(biased.u_unclamped - want).max() > 1e-3

    def test_clamps_and_reports_saturation(self, example1):
        path = curves.line_path([-5.0], [5.0])
        st = State(q=[0.0, -4.9], qd=[0.0, 0.0])
        ps = projection.global_initialize(path, example1.h(st.q))
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=100.0, K_D=1.0, eta1_ref=9.9
        )
        u, _, _, diag = control.step(
            example1, path, st, ps, control.ControllerState(), gains
        )
        assert diag.saturated
        assert np.all(u <= example1.default_limits.u_max + 1e-12)
        assert np.abs(diag.u_unclamped).max() > 5.0
