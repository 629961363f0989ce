"""Plant models: structural properties and finite-difference oracles."""

import dataclasses

import numpy as np
import pytest

from splinefollow import dynamics
from splinefollow.dynamics import State
from splinefollow.errors import DivergenceError, NonSPDInertiaError, ParameterError


def _random_states(system, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield State(
            q=rng.uniform(-1.2, 1.2, system.N),
            qd=rng.uniform(-1.0, 1.0, system.N),
        )


def _fd_jacobian(f, q, h=1e-6):
    """Central-difference Jacobian of f at q, one column per joint."""
    return np.stack(
        [(f(q + h * e) - f(q - h * e)) / (2 * h) for e in np.eye(len(q))], axis=-1
    )


def _point_mass_inertia(coms, masses, q):
    """sum_i m_i Jc_i^T Jc_i, each mass-centre Jacobian by central differences."""
    Jc = _fd_jacobian(coms, q)  # (bodies, 3 or 2, N)
    return np.einsum("i,iak,ial->kl", masses, Jc, Jc)


def _planar3r_coms(q):
    """Mass centres of the unit 3R links, mid-link, shape (3, 2)."""
    phi = np.cumsum(q)
    links = np.column_stack([np.cos(phi), np.sin(phi)])
    return np.cumsum(links, axis=0) - 0.5 * links


def _cpm_coms(q):
    """Mass centres of the 4-DOF arm's three links, shape (3, 3)."""
    phi = q[1] + np.cumsum(np.r_[0.0, q[2:]])
    lengths = np.array(dynamics._CPM_LENGTHS)
    reach = np.cumsum(lengths * np.cos(phi)) - 0.5 * lengths * np.cos(phi)
    height = (dynamics._CPM_BASE_HEIGHT + np.cumsum(lengths * np.sin(phi))
              - 0.5 * lengths * np.sin(phi))
    return np.column_stack(
        [np.cos(q[0]) * reach, np.sin(q[0]) * reach, height]
    )


def _planar3r_tip(q):
    """Tool point of the unit 3R arm."""
    phi = np.cumsum(q)
    return np.array([np.cos(phi).sum(), np.sin(phi).sum()])


def _cpm_tip(q):
    """Tool point of the 4-DOF arm: waist q0, then the planar 3-link arm."""
    phi = q[1] + np.cumsum(np.r_[0.0, q[2:]])
    lengths = np.array(dynamics._CPM_LENGTHS)
    reach = lengths @ np.cos(phi)
    height = dynamics._CPM_BASE_HEIGHT + lengths @ np.sin(phi)
    return np.array([np.cos(q[0]) * reach, np.sin(q[0]) * reach, height])


def _cpm_potential(q):
    masses = np.array(dynamics._CPM_MASSES)
    return dynamics._CPM_GRAVITY * masses @ _cpm_coms(q)[:, 2]


M1, M2 = 2.5, 0.7   # example1 masses away from the unit defaults

# view -> oracle(system, q): example1's hand-written matrices, and the
# mass-centre, forward-kinematics and finite-difference oracles of the arms
ORACLES = {
    "example1": {
        "D": lambda s, q: np.diag([M1, M2]),
        "G": lambda s, q: np.zeros(2),
        "h": lambda s, q: np.array([q[1]]),
        "J": lambda s, q: np.array([[0.0, 1.0]]),
        "dJ_dq": lambda s, q: np.zeros((1, 2, 2)),
    },
    "example2": {
        "D": lambda s, q: (_point_mass_inertia(_planar3r_coms, np.ones(3), q)
                           + np.tril(np.ones((3, 3))).T @ np.tril(np.ones((3, 3)))),
        "G": lambda s, q: np.zeros(3),
        "h": lambda s, q: _planar3r_tip(q),
        "J": lambda s, q: _fd_jacobian(_planar3r_tip, q),
        "dJ_dq": lambda s, q: _fd_jacobian(s.J, q),
    },
    "cpm4": {
        "D": lambda s, q: (_point_mass_inertia(_cpm_coms, np.array(dynamics._CPM_MASSES), q)
                           + np.diag(dynamics._CPM_ROTOR)),
        "G": lambda s, q: _fd_jacobian(_cpm_potential, q),
        "h": lambda s, q: _cpm_tip(q),
        "J": lambda s, q: _fd_jacobian(_cpm_tip, q),
        "dJ_dq": lambda s, q: _fd_jacobian(s.J, q),
    },
}

# the completion functions the plants stated by hand before Z
COMPLETIONS = {
    "example1": lambda st: np.array([st.q[0], st.qd[0]]),
    "example2": lambda st: np.array([st.q.sum(), st.qd.sum()]),
    "cpm4": lambda st: np.array([st.q[1:].sum(), st.qd[1:].sum()]),
}


@pytest.fixture(params=sorted(ORACLES))
def plant(request):
    if request.param == "example1":
        return dynamics.make_example1(m1=M1, m2=M2)
    return request.getfixturevalue(request.param)


class TestState:
    @pytest.mark.parametrize("field", ["q", "qd"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3,), (2, 2), ()])
    def test_non_finite_entry_raises(self, field, bad, shape):
        entries = {"q": np.zeros(shape), "qd": np.zeros(shape)}
        entries[field].flat[-1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            State(**entries)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), ()])
    def test_finite_entries_become_arrays(self, shape):
        st = State(q=np.ones(shape).tolist(), qd=np.zeros(shape).tolist())
        assert st.q.shape == st.qd.shape == shape
        assert st.q.dtype == st.qd.dtype == float


class TestDerivedViews:
    """The methods derived from ``forces``, ``kinematics`` and Z."""

    @pytest.mark.parametrize("view", ["D", "G", "h", "J", "dJ_dq"])
    def test_matches_oracle(self, plant, view):
        oracle = ORACLES[plant.name][view]
        rng = np.random.default_rng(21)
        for q in rng.uniform(-1.5, 1.5, (4, plant.N)):
            np.testing.assert_allclose(getattr(plant, view)(q), oracle(plant, q),
                                       rtol=1e-7, atol=1e-7)

    def test_completion_is_the_hand_written_one(self, plant):
        for st in _random_states(plant, 6, seed=22):
            np.testing.assert_array_equal(plant.completion(st),
                                          COMPLETIONS[plant.name](st))

    def test_completion_matrix_shape(self, plant):
        assert plant.Z.shape == (plant.N - plant.p, plant.N)


class TestExample1:
    def test_matrices(self, example1):
        q = np.zeros(2)
        np.testing.assert_allclose(example1.D(q), np.eye(2))
        np.testing.assert_allclose(
            example1.damping, [[2.0, -1.0], [-1.0, 1.0]]
        )
        np.testing.assert_allclose(example1.h(np.array([0.3, 0.7])), [0.7])

    def test_drift_and_input(self, example1):
        st = State(q=[0.0, 0.0], qd=[1.0, 2.0])
        f_v, g_v = dynamics.drift_and_input(example1, st)
        # m qdd = u - Bd qd with unit masses
        np.testing.assert_allclose(f_v, -example1.damping @ st.qd)
        np.testing.assert_allclose(g_v, np.eye(2))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            dynamics.make_example1(m1=-1.0)


class TestLimits:
    @pytest.mark.parametrize("bad", [
        {"q_max": [1.0, -1.0]},          # q_min = q_max in joint 2
        {"u_min": [2.0, -1.0]},          # u_min > u_max in joint 1
    ], ids=["q-equal", "u-above"])
    def test_min_must_be_below_max(self, bad):
        kw = dict(q_min=[-1.0, -1.0], q_max=[1.0, 1.0],
                  u_min=[-1.0, -1.0], u_max=[1.0, 1.0])
        with pytest.raises(ParameterError, match="min < max"):
            dynamics.Limits(**{**kw, **bad})


class TestPlanar3R:
    @pytest.mark.parametrize("damping", [(1.0, -0.5, 1.0), (1.0, 1.0)],
                             ids=["negative", "two"])
    def test_damping_validation(self, damping):
        with pytest.raises(ParameterError, match="damping"):
            dynamics.make_example2(damping=damping)

    def test_tip_position(self, example2):
        np.testing.assert_allclose(
            example2.h(np.zeros(3)), [3.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            example2.h(np.array([np.pi / 2, 0.0, 0.0])), [0.0, 3.0], atol=1e-12
        )

    def test_jacobian_fd(self, example2):
        h = 1e-6
        for st in _random_states(example2, 4, seed=1):
            J = example2.J(st.q)
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = h
                fd = (example2.h(st.q + dq) - example2.h(st.q - dq)) / (2 * h)
                np.testing.assert_allclose(J[:, j], fd, atol=1e-8)

    def test_jacobian_derivative_fd(self, example2):
        h = 1e-6
        for st in _random_states(example2, 3, seed=2):
            dJ = example2.dJ_dq(st.q)
            for c in range(3):
                dq = np.zeros(3)
                dq[c] = h
                fd = (example2.J(st.q + dq) - example2.J(st.q - dq)) / (2 * h)
                np.testing.assert_allclose(dJ[:, :, c], fd, atol=1e-7)

    def test_skew_symmetry(self, example2, symbolic_oracle):
        """Ddot - 2C is skew-symmetric (passivity structure)."""
        christoffel = symbolic_oracle(example2, "christoffel")
        h = 1e-6
        for st in _random_states(example2, 4, seed=3):
            C = christoffel(st.q, st.qd)
            Ddot = (
                example2.D(st.q + h * st.qd) - example2.D(st.q - h * st.qd)
            ) / (2 * h)
            S = Ddot - 2.0 * C
            np.testing.assert_allclose(S, -S.T, atol=1e-6)

    def test_inertia_oracle(self, example2):
        """D = sum_i Jc_i^T Jc_i + sum_i w_i w_i^T for unit masses and
        inertias, w_i the joints that turn link i."""
        w = np.tril(np.ones((3, 3)))  # row i: d(q0 + ... + qi)/dq
        rng = np.random.default_rng(11)
        for q in rng.uniform(-2.0, 2.0, (8, 3)):
            oracle = _point_mass_inertia(_planar3r_coms, np.ones(3), q) + w.T @ w
            np.testing.assert_allclose(example2.D(q), oracle, rtol=1e-7, atol=1e-7)

    def test_inertia_spd(self, example2):
        for st in _random_states(example2, 8, seed=4):
            eig = np.linalg.eigvalsh(example2.D(st.q))
            assert np.all(eig > 0)

    def test_undamped_energy_conserved(self, symbolic_oracle):
        """With no damping and u = 0, kinetic energy is constant."""
        system = dynamics.make_example2(damping=(0.0, 0.0, 0.0))
        energy = symbolic_oracle(system, "energy")
        st = State(q=[0.3, -0.5, 0.8], qd=[0.4, -0.2, 0.1])
        e0 = energy(st.q, st.qd)
        x = np.concatenate([st.q, st.qd])
        h = 1e-4
        for _ in range(200):
            def f(x):
                return np.concatenate(
                    [x[3:], dynamics.acceleration(system, x[:3], x[3:], np.zeros(3))]
                )
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        e1 = energy(x[:3], x[3:])
        assert e1 == pytest.approx(e0, rel=1e-9)


class TestCpm4:
    def test_shapes(self, cpm4):
        assert (cpm4.N, cpm4.p) == (4, 3)
        q = np.array([0.2, 0.5, -0.8, 0.4])
        assert cpm4.h(q).shape == (3,)
        assert cpm4.J(q).shape == (3, 4)

    def test_jacobian_full_rank_in_workspace(self, cpm4):
        rng = np.random.default_rng(6)
        for _ in range(8):
            q = rng.uniform([-1.0, 0.2, -1.8, 0.3], [1.0, 1.2, -0.6, 1.4])
            s = np.linalg.svd(cpm4.J(q), compute_uv=False)
            assert s[-1] > 1e-3

    def test_jacobian_fd(self, cpm4):
        h = 1e-6
        rng = np.random.default_rng(7)
        q = rng.uniform(-0.8, 0.8, 4)
        J = cpm4.J(q)
        for j in range(4):
            dq = np.zeros(4)
            dq[j] = h
            fd = (cpm4.h(q + dq) - cpm4.h(q - dq)) / (2 * h)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-8)

    def test_inertia_and_gravity_oracle(self, cpm4):
        """D = sum_i m_i Jc_i^T Jc_i + rotor inertia; G = grad sum_i m_i g z_ci."""
        masses = np.array(dynamics._CPM_MASSES)

        def potential(q):
            return dynamics._CPM_GRAVITY * masses @ _cpm_coms(q)[:, 2]

        rng = np.random.default_rng(12)
        for q in rng.uniform(-2.0, 2.0, (8, 4)):
            oracle = (_point_mass_inertia(_cpm_coms, masses, q)
                      + np.diag(dynamics._CPM_ROTOR))
            np.testing.assert_allclose(cpm4.D(q), oracle, rtol=1e-7, atol=1e-7)
            np.testing.assert_allclose(
                cpm4.G(q), _fd_jacobian(potential, q), rtol=1e-7, atol=1e-7
            )

    def test_skew_symmetry(self, cpm4, symbolic_oracle):
        christoffel = symbolic_oracle(cpm4, "christoffel")
        h = 1e-6
        for st in _random_states(cpm4, 3, seed=8):
            C = christoffel(st.q, st.qd)
            Ddot = (cpm4.D(st.q + h * st.qd) - cpm4.D(st.q - h * st.qd)) / (2 * h)
            S = Ddot - 2.0 * C
            np.testing.assert_allclose(S, -S.T, atol=1e-6)


class TestFactory:
    def test_known_plants(self):
        for name in ("example1", "example2", "cpm4"):
            assert dynamics.make_plant(name).name == name

    def test_unknown_plant(self):
        with pytest.raises(ParameterError):
            dynamics.make_plant("acrobot")

    def test_acceleration_consistent_with_drift(self, example2):
        st = State(q=[0.2, 0.4, -0.3], qd=[0.1, -0.2, 0.3])
        u = np.array([1.0, -0.5, 0.25])
        f_v, g_v = dynamics.drift_and_input(example2, st)
        np.testing.assert_allclose(
            dynamics.acceleration(example2, st.q, st.qd, u),
            f_v + g_v @ u,
            atol=1e-12,
        )


class TestInertiaSolve:
    """The generated Cholesky solve behind acceleration and drift_and_input."""

    @staticmethod
    def _with_inertia(system, D):
        """system with the constant inertia D and no Coriolis or gravity."""
        rows = np.asarray(D, dtype=float).tolist()
        return dataclasses.replace(
            system, forces=lambda q, qd: (rows, [0.0] * system.N))

    @pytest.mark.parametrize("D", [[[1.0, 2.0], [2.0, 1.0]],    # indefinite
                                   [[1.0, 1.0], [1.0, 1.0]]])   # singular
    def test_not_spd_raises(self, example1, D):
        system = self._with_inertia(example1, D)
        st = State(q=[0.1, 0.2], qd=[0.3, -0.4])
        with pytest.raises(NonSPDInertiaError):
            dynamics.acceleration(system, st.q, st.qd, [1.0, 0.0])
        with pytest.raises(NonSPDInertiaError):
            dynamics.drift_and_input(system, st)

    def test_non_finite_raises_divergence(self, example1, example2):
        system = self._with_inertia(example1, [[np.inf, 0.0], [0.0, 1.0]])
        st = State(q=[0.1, 0.2], qd=[0.3, -0.4])
        with pytest.raises(DivergenceError):
            dynamics.acceleration(system, st.q, st.qd, [1.0, 0.0])
        with pytest.raises(DivergenceError):
            dynamics.drift_and_input(system, st)
        with pytest.raises(DivergenceError):
            dynamics.acceleration(example1, st.q, st.qd, [np.nan, 0.0])
        with pytest.raises(DivergenceError):   # math.cos(inf) raises
            dynamics.acceleration(example2, [0.0, np.inf, 0.0], [0.0] * 3,
                                  [0.0] * 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_numpy_solve(self, n):
        solve = dynamics._cholesky(n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            M = rng.normal(size=(n, n))
            D = M @ M.T + 0.1 * np.eye(n)
            B = rng.normal(size=(n, n + 1))
            x = np.array(solve(D.tolist(), B.T.tolist(), None)).T
            ref = np.linalg.solve(D, B)
            np.testing.assert_allclose(x, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
