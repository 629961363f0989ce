"""Outer loops and the constrained-least-squares input resolution."""

import re

import numpy as np
import pytest

import oracles
from splinefollow import codegen, control, curves, dynamics, frames, projection
from splinefollow.dynamics import Limits, State
from splinefollow.errors import NearSingularDecouplingError, ParameterError


def _kkt_oracle(alpha, beta, v, r, W):
    """Solve min (u-r)' W (u-r) s.t. beta u = v - alpha via the KKT system."""
    alpha, beta, v, r = (np.asarray(x, dtype=float) for x in (alpha, beta, v, r))
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
        with pytest.raises(NearSingularDecouplingError) as exc:
            control.resolve_input(np.zeros(p), beta, np.zeros(p), np.zeros(N))
        if p == 1:
            assert exc.value.cond == np.inf

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
        for beta in ([[1.0, np.nan], [0.0, 1.0]], [[1.0, np.nan]], [[np.nan]]):
            p, N = np.shape(beta)
            with pytest.raises(NearSingularDecouplingError):
                control.resolve_input(np.zeros(p), beta, np.zeros(p), np.zeros(N))

    @staticmethod
    def _beta_of_cond(rng, cond):
        """A 2 x 2 beta of random scale and orientations whose
        M = beta beta' has condition number cond."""
        def rot(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        s = 10.0 ** rng.uniform(-3.0, 3.0)
        return (s * rot(rng.uniform(0.0, 2.0 * np.pi)) @ np.diag([1.0, cond ** -0.5])
                @ rot(rng.uniform(0.0, 2.0 * np.pi)).T).tolist()

    @staticmethod
    def _eigvalsh_cond(beta):
        """max|eig| / min|eig| of M as the resolution forms it, by eigvalsh."""
        eig = np.abs(np.linalg.eigvalsh([[frames.dot(b, c) for c in beta] for b in beta]))
        return eig.max() / eig.min()

    def test_closed_form_cond_matches_eigvalsh(self, monkeypatch):
        """The p = 2 closed form's cond against eigvalsh's, cond 1 to 1e12,
        and inf for a singular M (zero, or of exactly zero determinant).

        Recorded with a limit of -1, the resolution reports every cond.
        Both err by about eps cond: over 108 000 samples (3000 per decade,
        three seeds) |closed - eigvalsh| / eigvalsh was at most 2.6 eps
        cond (6.1e-9 on [1e7, 1e8), 7.8e-6 on [1e10, 1e11), 8.1e-5 on
        [1e11, 1e12)), so the bound is 8 eps cond.
        """
        monkeypatch.setattr(control, "CONDITION_LIMIT", -1.0)
        resolve = codegen.compiled(control._resolve_code(2, 2, False))
        rng = np.random.default_rng(20)
        for decade in range(12):
            for _ in range(500):
                beta = self._beta_of_cond(rng, 10.0 ** rng.uniform(decade, decade + 1))
                with pytest.raises(NearSingularDecouplingError) as exc:
                    resolve([0.0] * 2, beta, [0.0] * 2, [0.0] * 2, None)
                want = self._eigvalsh_cond(beta)
                assert abs(exc.value.cond - want) / want <= 8 * np.finfo(float).eps * want
        for beta in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]):   # M singular
            with pytest.raises(NearSingularDecouplingError) as exc:
                resolve([0.0] * 2, beta, [0.0] * 2, [0.0] * 2, None)
            assert exc.value.cond == np.inf

    def test_closed_form_verdict_near_the_limit(self):
        """No verdict differs from eigvalsh's for cond within 0.1 decade
        of CONDITION_LIMIT (none in 90 000 samples, three seeds)."""
        rng = np.random.default_rng(21)
        for _ in range(10000):
            beta = self._beta_of_cond(rng, 10.0 ** rng.uniform(9.9, 10.1))
            singular = self._eigvalsh_cond(beta) > control.CONDITION_LIMIT
            try:
                control.resolve_input([0.0] * 2, beta, [0.0] * 2, [0.0] * 2)
            except NearSingularDecouplingError:
                assert singular
            else:
                assert not singular

    def test_closed_form_is_scale_free(self):
        """Scaling beta and v by s leaves u as it is, for s from 1e-150 to
        1e150: the p = 2 check multiplies entries of M only after dividing
        them by its largest eigenvalue (u moved by at most 3.4e-16
        relative)."""
        beta = [[2.0, 1.0, 0.0], [0.5, 1.5, 1.0]]
        want = control.resolve_input([0.0] * 2, beta, [1.0, -1.0], [0.0] * 3)
        for s in (1e-150, 1e-80, 1e80, 1e150):
            u = control.resolve_input([0.0] * 2, [[s * x for x in b] for b in beta],
                                      [s, -s], [0.0] * 3)
            assert u == pytest.approx(want, rel=1e-12)

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
        v, integral = oracles.tangential_v(
            np.array([1.5, 0.2]), 0.0, gains, dt=0.02
        )
        assert v == pytest.approx(4.0 * 0.5 - 3.0 * 0.2)
        assert integral == 0.0

    def test_velocity_mode_integrates(self):
        gains = control.OuterLoopGains(K_P=2.0, K_I=1.0, eta2_ref=1.0)
        v, integral = oracles.tangential_v(np.array([0.0, 0.0]), 0.0, gains, dt=0.1)
        assert integral == pytest.approx(0.1)
        assert v == pytest.approx(2.0 + 0.1)

    def test_anti_windup_clamp(self):
        gains = control.OuterLoopGains(
            K_P=1.0, K_I=1.0, eta2_ref=100.0, integral_limit=0.5
        )
        integral = 0.0
        for _ in range(50):
            _, integral = oracles.tangential_v(np.array([0.0, 0.0]), integral,
                                               gains, dt=1.0)
        assert integral == pytest.approx(0.5)

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
        direction = np.array([[0.6], [0.8]])   # xi_1 and xi_2, one row each
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
        for name in ("xi_Kp", "xi_Kd"):
            with pytest.raises(ParameterError, match=name):
                control.OuterLoopGains(**{name: ()})
            for bad in (150.0, ("150",), None):
                with pytest.raises(ParameterError, match=re.escape(
                        f"{name} must be finite real numbers; got {bad!r}")):
                    control.OuterLoopGains(**{name: bad})
        for name in ("K_P", "K_I", "K_D", "eta2_ref", "eta1_ref", "integral_limit",
                     "robust_mu"):
            with pytest.raises(ParameterError, match=re.escape(
                    f"{name} must be a finite real number; got '1.0'")):
                control.OuterLoopGains(**{name: "1.0"})
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
        # a negative limit would pin the integral at -1 after one period
        with pytest.raises(ParameterError, match="integral_limit"):
            control.OuterLoopGains(K_I=1.0, integral_limit=-1.0)

    @pytest.mark.parametrize("gains, message", [
        ({"K_P": np.nan}, "K_P must be a finite real number; got nan"),
        ({"K_I": np.inf}, "K_I must be a finite real number; got inf"),
        ({"K_D": np.nan}, "K_D must be a finite real number; got nan"),
        ({"eta2_ref": np.nan}, "eta2_ref must be a finite real number; got nan"),
        ({"eta1_ref": -np.inf}, "eta1_ref must be a finite real number; got -inf"),
        ({"integral_limit": np.nan},
         "integral_limit must be a finite real number; got nan"),
        ({"robust_mu": np.nan}, "robust_mu must be a finite real number; got nan"),
        ({"xi_Kp": (np.nan,)}, "xi_Kp must be finite real numbers; got (nan,)"),
        ({"xi_Kd": (1.0, np.inf)}, "xi_Kd must be finite real numbers; got (1.0, inf)"),
        ({"transversal_mode": "robust", "robust_K": ((np.nan, -1.0),),
          "robust_K0": ((0.0, 0.0),), "robust_K2": ((0.0, 0.0),)},
         "robust gains robust_K must be lists of finite real numbers of one length; "
         "got ((nan, -1.0),)"),
        ({"transversal_mode": "robust", "robust_K": ((-1.0, -1.0),),
          "robust_K0": ((0.0, 0.0),), "robust_K2": ((np.inf, 0.0),)},
         "robust gains robust_K2 must be lists of finite real numbers of one length; "
         "got ((inf, 0.0),)"),
    ], ids=["K_P", "K_I", "K_D", "eta2_ref", "eta1_ref", "integral_limit",
            "robust_mu", "xi_Kp", "xi_Kd", "robust_K", "robust_K2"])
    def test_gains_must_be_finite(self, gains, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            control.OuterLoopGains(**gains)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weight_must_be_finite(self, bad):
        """An infinite W has NaN eigenvalues, which no test for <= 0 catches."""
        W = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError, match=re.escape(
                "redundancy W must be lists of finite real numbers of one length; "
                f"got {W!r}")):
            control.RedundancyConfig(W=W)

    @pytest.mark.parametrize("table", [
        ((0.0, 0.0), (1.0,)),
        ((0.0, 0.0, 1.0), (1.0, 2.0, 3.0)),
        (0.0, 1.0),
        ((0.0, "fast"), (1.0, 2.0)),
        ((0.0, np.nan), (1.0, 2.0)),
        ((0.0, 0.0), (np.inf, 2.0)),
        ((2.0, 0.4), (0.0, 0.0), (1.0, 0.2)),   # read as 0.4 at t = 0
        ((0.0, 0.0), (0.0, 1.0)),
    ], ids=["ragged", "three-columns", "flat", "text", "nan", "inf", "unsorted",
            "repeated-time"])
    def test_reference_table_validated(self, table):
        with pytest.raises(ParameterError, match="eta2_ref_table rows"):
            control.OuterLoopGains(eta2_ref_table=table)

    def test_reference_table_is_np_interp(self):
        """The stored columns give np.interp's values, bit for bit,
        between, at and outside the table's times."""
        table = ((0.0, 0.0), (0.7, 0.3), (1.9, -0.25), (4.0, 0.1))
        gains = control.OuterLoopGains(eta2_ref_table=table)
        times, speeds = np.array(table).T
        for t in np.concatenate([np.linspace(-1.0, 5.0, 241), times]):
            assert gains.eta2_reference(float(t)) == np.interp(t, times, speeds)


class TestStep:
    def test_example1_first_input_is_bias(self, example1):
        """On the line path, u_1 never fights the bias: beta = [0, 1/m2]."""
        path = curves.line_path([-5.0], [5.0])
        st = State(q=[0.5, 0.0], qd=[0.0, 0.0])
        ps = projection.global_initialize(path, example1.h(st.q))
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=4.0, K_D=3.0, eta1_ref=6.0
        )
        u, _, diag = control.step(
            example1, path, st.q.tolist(), st.qd.tolist(), ps, 0.0, gains
        )
        r = control.bias_r(st.q, example1.default_limits)
        assert u[0] == pytest.approx(r[0], abs=1e-10)
        assert not diag.saturated

    def test_weighted_step_matches_kkt_oracle(self, example2, fig8_path):
        """A closed-loop step with W != I resolves u as the KKT system does."""
        from splinefollow import frames, sim, transform

        policy = frames.FramePolicy(mode="planar_fallback")
        k, lam = 3, 0.6 * fig8_path.segments[3].domain[1]
        fj = oracles.frame_jet(fig8_path, k, lam, policy)
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0) + 0.02 * fj.e[1], 0.3)
        st = State(q=q, qd=[0.1, -0.2, 0.15])
        ps = projection.global_initialize(fig8_path, example2.h(q))
        L = np.array([[1.0, 0.0, 0.0], [0.4, 1.2, 0.0], [-0.3, 0.2, 0.7]])
        red = control.RedundancyConfig(W=L @ L.T)
        gains = control.OuterLoopGains(eta2_ref=0.2, K_P=5.0, K_I=2.0,
                                       xi_Kp=(150.0,), xi_Kd=(30.0,))
        limits = example2.default_limits
        u, _, diag = control.step(
            example2, fig8_path, st.q.tolist(), st.qd.tolist(), ps, 0.0, gains,
            redundancy=red, limits=limits, policy=policy)
        lin = transform.linearize(example2, st.q.tolist(), st.qd.tolist(),
                                  fig8_path, diag.projection, policy)
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
        fj = oracles.frame_jet(fig8_path, k, lam, policy)
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0) - 0.02 * fj.e[1], 0.2)
        st = State(q=q, qd=[-0.1, 0.2, 0.05])
        ps = projection.global_initialize(fig8_path, example2.h(q))
        red = control.RedundancyConfig(bias_mode="zero")
        gains = control.OuterLoopGains(eta2_ref=0.2, K_P=5.0, K_I=2.0,
                                       xi_Kp=(150.0,), xi_Kd=(30.0,))
        u, _, diag = control.step(
            example2, fig8_path, st.q.tolist(), st.qd.tolist(), ps, 0.0, gains,
            redundancy=red, policy=policy)
        lin = transform.linearize(example2, st.q.tolist(), st.qd.tolist(),
                                  fig8_path, diag.projection, policy)
        want = _kkt_oracle(lin.alpha, lin.beta, diag.v, np.zeros(3), np.eye(3))
        np.testing.assert_allclose(diag.u_unclamped, want, atol=1e-8)
        # the joint-limit bias moves u within beta's null space
        biased = control.step(example2, fig8_path, st.q.tolist(), st.qd.tolist(),
                              ps, 0.0, gains, policy=policy)[2]
        assert np.abs(biased.u_unclamped - want).max() > 1e-3

    def test_clamps_and_reports_saturation(self, example1):
        path = curves.line_path([-5.0], [5.0])
        st = State(q=[0.0, -4.9], qd=[0.0, 0.0])
        ps = projection.global_initialize(path, example1.h(st.q))
        gains = control.OuterLoopGains(
            tangential_mode="position", K_P=100.0, K_D=1.0, eta1_ref=9.9
        )
        u, _, diag = control.step(
            example1, path, st.q.tolist(), st.qd.tolist(), ps, 0.0, gains
        )
        assert diag.saturated
        assert np.all(u <= example1.default_limits.u_max + 1e-12)
        assert np.abs(diag.u_unclamped).max() > 5.0
