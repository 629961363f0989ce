"""Path coordinates and feedback-linearization quantities.

The key oracle: integrating the plant under a known input, the measured
second derivatives of eta_1 and xi_1 must match alpha + beta u.
``linearize`` runs on Python floats; the numpy arithmetic below, on the
plant's array views and a dense solve, is the reference it must agree with.
"""

import numpy as np
import pytest

import oracles
from splinefollow import curves, dynamics, frames, projection, sim, transform
from splinefollow.dynamics import State


def _project(path, system, q):
    return projection.global_initialize(path, system.h(q))


def _reference_linearize(system, state, path, proj_state, policy, christoffel):
    """(eta, xi, alpha, beta) on numpy arrays.

    C qd comes from ``christoffel``, the plant's symbolic Christoffel matrix.
    """
    fj = oracles.frame_jet(path, proj_state.k_star, proj_state.lambda_star, policy)
    q, qd = state.q, state.qd
    p, N = system.p, system.N
    J = system.J(q)
    offset = system.h(q) - fj.sigma[0]
    Jqd = J @ qd
    speed = fj.speed[0]
    D = system.D(q)
    f_v = np.linalg.solve(D, -christoffel(q, qd) @ qd - oracles.G(system, q)
                          - system.damping @ qd)
    g_v = np.linalg.solve(D, system.A)

    eta2 = fj.e[0] @ Jqd
    lam_rate = eta2 / speed
    xi = np.empty((2, p - 1))
    for j in range(1, p):
        xi[0, j - 1] = fj.e[j] @ offset
        xi[1, j - 1] = lam_rate * (fj.de[j] @ offset) + fj.e[j] @ Jqd
    eta = np.array([path.arclength_offsets[fj.k] + path.arclength_interp(fj.k, fj.lam),
                    eta2])

    accel_drift = oracles.Jdot_qd(system, q, qd) + J @ f_v
    lf2_eta1 = lam_rate * (fj.de[0] @ Jqd) + fj.e[0] @ accel_drift
    sig1, sig2 = fj.sigma[1], fj.sigma[2]
    lam_rate_drift = lf2_eta1 / speed - eta2**2 * (sig1 @ sig2) / speed**4
    alpha = np.empty(p)
    beta = np.empty((p, N))
    Jg = J @ g_v
    alpha[0] = lf2_eta1
    beta[0] = fj.e[0] @ Jg
    for j in range(1, p):
        a_j = (offset @ fj.de[j]) / speed
        alpha[j] = (
            fj.e[j] @ accel_drift
            + lam_rate * (fj.de[j] @ (2.0 * Jqd - eta2 * fj.e[0]))
            + offset @ (fj.dde[j] * lam_rate**2 + fj.de[j] * lam_rate_drift)
        )
        beta[j] = (a_j * fj.e[0] + fj.e[j]) @ Jg
    return eta, xi, alpha, beta


class TestCoordinates:
    def test_on_path_state_has_zero_xi(self, fig8_path, example2):
        k, lam = 2, 0.5 * sum(fig8_path.segments[2].domain)
        y = fig8_path.evaluate(k, lam, 0)
        q = sim.ik_planar3r(y, 0.4)
        st = State(q=q, qd=np.zeros(3))
        ps = _project(fig8_path, example2, q)
        T = transform.linearize(example2, st.q.tolist(), st.qd.tolist(),
                                fig8_path, ps)
        np.testing.assert_allclose(T.xi, 0.0, atol=1e-8)
        assert T.eta[1] == pytest.approx(0.0, abs=1e-12)

    def test_eta1_is_arclength(self, fig8_path, example2):
        k, lam = 3, 0.7 * fig8_path.segments[3].domain[1]
        y = fig8_path.evaluate(k, lam, 0)
        q = sim.ik_planar3r(y, 0.4)
        ps = _project(fig8_path, example2, q)
        T = transform.linearize(example2, q.tolist(), [0.0] * 3,
                                fig8_path, ps)
        want = fig8_path.arclength_offsets[k] + fig8_path.arclength(k, lam)
        assert T.eta[0] == pytest.approx(want, abs=1e-5)

    def test_xi1_is_signed_offset(self, example2):
        path = curves.circle_path(radius=2.0, span=(0.0, 4.0 * np.pi))
        # tip 0.1 outside the circle: offset along -e2 (outward) for a CCW circle
        q = sim.ik_planar3r((2.1, 0.0), 0.5)
        ps = _project(path, example2, q)
        T = transform.linearize(example2, q.tolist(), [0.0] * 3,
                                path, ps)
        assert abs(abs(T.xi[0][0]) - 0.1) < 1e-6

    def test_zeta_is_completion(self, example2):
        path = curves.circle_path(radius=2.0, span=(0.0, 4.0 * np.pi))
        q = sim.ik_planar3r((2.0, 0.0), 0.3)
        qd = np.array([0.1, 0.2, -0.3])
        ps = _project(path, example2, q)
        T = transform.linearize(example2, q.tolist(), qd.tolist(), path,
                                ps)
        np.testing.assert_allclose(T.zeta, [q.sum(), qd.sum()], atol=1e-12)

    def test_flat_layout(self, example2):
        path = curves.circle_path(radius=2.0, span=(0.0, 4.0 * np.pi))
        q = sim.ik_planar3r((2.0, 0.0), 0.3)
        ps = _project(path, example2, q)
        T = transform.linearize(example2, q.tolist(), [0.0] * 3,
                                path, ps)
        assert np.size(T.eta) + np.size(T.xi) + np.size(T.zeta) == 2 * example2.N


class TestNumpyReference:
    """linearize against the numpy reference at seeded random states."""

    @pytest.mark.parametrize("plant, path_name, policy", [
        ("example1", "line", frames.FRENET),
        ("example2", "wavy_path", frames.FRENET),
        ("example2", "fig8_path", frames.FramePolicy(mode="planar_fallback")),
        ("cpm4", "twisted_path", frames.FRENET),
        ("example2", "wavy_path", frames.FramePolicy(
            mode="line_fallback", fixed_vectors=([0.0, 1.0],))),
        ("cpm4", "twisted_path", frames.FramePolicy(
            mode="line_fallback", fixed_vectors=([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))),
    ])
    def test_matches_numpy(self, plant, path_name, policy, request, symbolic_oracle):
        system = request.getfixturevalue(plant)
        christoffel = symbolic_oracle(system, "christoffel")
        path = (curves.line_path([-5.0], [5.0]) if path_name == "line"
                else request.getfixturevalue(path_name))
        lim = system.default_limits
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(path.n_segments))
            ps = projection.ProjectionState(
                k_star=k, lambda_star=rng.uniform(*path.segments[k].domain))
            st = State(q=rng.uniform(lim.q_min, lim.q_max) * 0.8,
                       qd=rng.normal(size=system.N))
            lin = transform.linearize(system, st.q.tolist(), st.qd.tolist(), path,
                                      ps, policy)
            got = (lin.eta, lin.xi, lin.alpha, lin.beta)
            want = _reference_linearize(system, st, path, ps, policy, christoffel)
            for g, w in zip(got, want):
                g = np.asarray(g)
                assert g.shape == w.shape
                scale = max(np.abs(w).max(initial=0.0), 1e-300)
                assert np.abs(g - w).max(initial=0.0) <= 1e-12 * scale
            np.testing.assert_allclose(lin.zeta, system.completion(st.q.tolist(),
                                                                  st.qd.tolist()))


class TestExample1Linearization:
    def test_alpha_beta_closed_form(self, example1):
        """For the two-mass plant: qdd_2 = (u_2 + b2 (qd_1 - qd_2)) / m2."""
        path = curves.line_path([-5.0], [5.0])
        policy_state = State(q=[0.4, 1.0], qd=[0.3, -0.2])
        ps = projection.ProjectionState(k_star=0, lambda_star=6.0)
        lin = transform.linearize(example1, policy_state.q.tolist(),
                                  policy_state.qd.tolist(), path, ps)
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
        fj = oracles.frame_jet(fig8_path, k, lam, policy)
        q = sim.ik_planar3r(y + offset * fj.e[1], 0.2)
        qd = np.linalg.solve(
            np.vstack([example2.J(q), np.ones((1, 3))]),
            np.array([0.15 * fj.e[0, 0], 0.15 * fj.e[0, 1], 0.1]),
        )
        st = State(q=q, qd=qd)
        u = np.array([0.5, -0.3, 0.2])
        cfg = projection.ProjectionConfig(alpha0=1e-4)
        ps = projection.global_initialize(fig8_path, example2.h(q), cfg)
        x = st.q.tolist(), st.qd.tolist()
        lin = transform.linearize(example2, *x, fig8_path, ps, policy)

        def xi1_at(q, qd, pstate):
            pstate = projection.update(pstate, fig8_path, example2.h(q), cfg)
            T = transform.linearize(example2, q, qd, fig8_path, pstate,
                                    policy)
            return np.array(T.xi[0]), pstate

        h = 1e-4
        sp = sim._rk4_hold(example2, *x, u.tolist(), h / 4, 4)
        sm = sim._rk4_hold(example2, *x, u.tolist(), -h / 4, 4)
        x0, _ = xi1_at(*x, ps)
        xp, _ = xi1_at(*sp, ps)
        xm, _ = xi1_at(*sm, ps)
        fd = (xp - 2.0 * x0 + xm) / h**2
        want = (np.array(lin.alpha) + np.array(lin.beta) @ u)[1:]
        np.testing.assert_allclose(fd, want, atol=5e-3)


class TestCheckDifferentials:
    def test_independent_on_path(self, fig8_path, example2):
        from splinefollow import frames

        policy = frames.FramePolicy(mode="planar_fallback")
        k, lam = 4, 0.5 * fig8_path.segments[4].domain[1]
        q = sim.ik_planar3r(fig8_path.evaluate(k, lam, 0), 0.3)
        ps = projection.ProjectionState(k_star=k, lambda_star=lam)
        rep = oracles.check_differentials(
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
        rep = oracles.check_differentials(
            example2, State(q=q, qd=np.zeros(3)), fig8_path, ps, policy
        )
        assert rep.position_rows.shape == (2, 3)
        assert rep.velocity_rows.shape == (2, 3)


class TestCompletionVectors:
    def test_each_policy_runs_with_its_own_vectors(self, example2, fig8_path):
        """Two line_fallback policies that differ only in their vector, run
        in turn on the figure-eight: each linearization equals the one
        pieced together for its own policy, and the two differ."""
        policies = [frames.FramePolicy(mode="line_fallback", fixed_vectors=(v,))
                    for v in ([0.3, 1.0], [1.0, -0.3])]
        q, qd = sim.ik_planar3r((2.0, 0.3), 0.3).tolist(), [0.1, -0.2, 0.3]
        differ = []
        for k in range(fig8_path.n_segments):
            ps = projection.ProjectionState(k, np.mean(fig8_path.segments[k].domain))
            got = [repr(transform.linearize(example2, q, qd, fig8_path, ps, policy))
                   for policy in policies]
            assert got == [repr(oracles.linearize_pieces(example2, q, qd, fig8_path,
                                                         ps, policy))
                           for policy in policies]
            differ.append(got[0] != got[1])
        assert any(differ)
