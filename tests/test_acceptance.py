"""Acceptance gate: end-to-end behavioral criteria at pinned tolerances.

Each test prints a single PASS/FAIL line (bypassing capture) so the
verdicts are visible in any pytest run, then asserts the same condition.
"""

import time

import numpy as np
import pytest
from scipy.optimize import least_squares

import oracles
from splinefollow import (
    control,
    curves,
    dynamics,
    frames,
    projection,
    sim,
    transform,
)
from splinefollow.dynamics import State


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{label}] {'PASS' if ok else 'FAIL'} ({detail})")


# --- shared setups ------------------------------------------------------------


def _fig8():
    t = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    wp = np.column_stack([1.5 + np.sin(t), 0.3 + 0.9 * np.sin(t) * np.cos(t)])
    return curves.fit_spline(wp, closed=True)


def _fig8_setup(system, offset=0.0):
    """Figure-eight scenario for the planar 3R arm, started on/off the path.

    ``system`` is the (prebuilt) example2 plant, so the plant build
    stays outside the callers' timers.
    """
    path = _fig8()
    policy = frames.FramePolicy(mode="planar_fallback")
    # joint-limit midpoints at the average tool-angle-zero posture
    qs = []
    for k in range(path.n_segments):
        lo, hi = path.segments[k].domain
        for lam in np.linspace(lo, hi, 8):
            qs.append(sim.ik_planar3r(path.evaluate(k, lam, 0), 0.0))
    qmid = np.mean(qs, axis=0)
    limits = dynamics.Limits(
        q_min=qmid - 2.0, q_max=qmid + 2.0,
        u_min=[-10.0] * 3, u_max=[10.0] * 3,
    )
    eta2_ref = 0.2
    k0 = 2
    lam0 = 0.5 * sum(path.segments[k0].domain)
    y0 = path.evaluate(k0, lam0, 0)
    fj = oracles.frame_jet(path, k0, lam0, policy)
    q0 = sim.ik_planar3r(y0 + offset * fj.e[1], 0.0)
    qd0 = np.linalg.solve(
        np.vstack([system.J(q0), np.ones((1, 3))]),
        np.concatenate([eta2_ref * fj.e[0], [0.0]]),
    )
    gains = control.OuterLoopGains(
        tangential_mode="velocity", K_P=5.0, K_I=2.0, eta2_ref=eta2_ref,
        xi_Kp=(150.0,), xi_Kd=(30.0,),
    )
    scen = sim.Scenario(
        plant="example2", path_spec={"segments": []}, q0=q0, qd0=qd0,
        gains=gains, duration=20.0, dt=0.005, substeps=2, limits=limits,
        frame_mode="planar_fallback", name="figure-eight",
    )
    return scen, path, system, eta2_ref


def _ik_cpm4(system, y, q3):
    def res(x):
        return system.h(np.array([x[0], x[1], x[2], q3])) - y

    sol = least_squares(res, x0=[np.arctan2(y[1], y[0]), 0.8, -1.0],
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return np.array([*sol.x, q3])


# --- criteria -----------------------------------------------------------------


def test_criterion_1_ellipse_descent_window(capsys):
    t0 = time.perf_counter()
    path = curves.ellipse_path(a=2.0, b=1.0)
    lam, delta, _ = projection.allowable_delta_lambda(path, 0, samples=129)
    i = int(np.argmin(np.abs(lam)))
    value = delta[i]
    elapsed = time.perf_counter() - t0
    ok = abs(value - 1.5136) <= 1e-3 and elapsed < 1.0
    _verdict(capsys, "criterion 1: ellipse descent window", ok,
             f"delta={value:.5f}, expected 1.5136+-0.001, {elapsed:.2f}s")
    assert ok


def test_criterion_2_two_mass_zero_dynamics(capsys):
    t0 = time.perf_counter()
    scen = sim.Scenario(
        plant="example1",
        path_spec={"analytic": "line", "params": {"start": [-5.0], "end": [5.0]}},
        q0=[0.5, 0.0],
        qd0=[0.0, 0.0],
        gains=control.OuterLoopGains(
            tangential_mode="position", K_P=4.0, K_D=3.0, eta1_ref=6.0
        ),
        duration=30.0,
        dt=0.02,
        substeps=5,
        name="two-mass",
    )
    log = sim.run(scen)
    elapsed = time.perf_counter() - t0
    limits = dynamics.make_example1().default_limits
    midpoint = 0.5 * (limits.q_min[0] + limits.q_max[0])
    z1_err = abs(log.zeta[-1, 0] - midpoint)
    z2_err = abs(log.zeta[-1, 1])
    ok = z1_err < 1e-3 and z2_err < 1e-3 and elapsed < 5.0
    _verdict(capsys, "criterion 2: redundant state to limit midpoint", ok,
             f"|zeta1-mid|={z1_err:.2e}, |zeta2|={z2_err:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_phase_portrait_equilibria(capsys, example2):
    undamped = dynamics.make_example2(damping=(0.0, 0.0, 0.0))
    t0 = time.perf_counter()
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
    z1 = np.linspace(-0.6, 1.25, 20)
    z2 = np.linspace(-0.8, 0.8, 20)
    g1, g2 = np.meshgrid(z1, z2)
    grid = np.column_stack([g1.ravel(), g2.ravel()])

    portrait = sim.zero_dynamics_portrait(
        example2, path, gains, grid, limits=limits,
        eta1_ref=np.pi * radius, sim_duration=4.0,
    )
    n_eq = len(portrait.equilibria)
    stable = [e for e in portrait.equilibria if e["stable"]]
    unstable = [e for e in portrait.equilibria if not e["stable"]]
    origin_ok = (
        len(stable) == 1
        and np.linalg.norm(stable[0]["zeta"]) < 1e-2
    )
    singular_ok = len(unstable) == 1 and unstable[0]["boundary"]

    # with damping removed the origin is no longer attractive
    up = sim.zero_dynamics_portrait(
        undamped, path, gains, np.array([[-0.3, 0.0], [0.3, 0.0]]),
        limits=limits, eta1_ref=np.pi * radius, sim_duration=1.0,
    )
    near_zero = [e for e in up.equilibria
                 if np.linalg.norm(e["zeta"]) < 1e-2]
    undamped_ok = bool(near_zero) and not near_zero[0]["stable"]

    elapsed = time.perf_counter() - t0
    ok = n_eq == 2 and origin_ok and singular_ok and undamped_ok and elapsed < 120.0
    _verdict(capsys, "criterion 3: zero-dynamics portrait", ok,
             f"{n_eq} equilibria, stable at "
             f"{np.round(portrait.equilibria[0]['zeta'], 3) if n_eq else '-'}, "
             f"undamped-unstable={undamped_ok}, {elapsed:.0f}s")
    assert ok


def test_criterion_4_junction_continuity(capsys, wavy_path, example2):
    t0 = time.perf_counter()
    gains = control.OuterLoopGains(
        tangential_mode="velocity", K_P=5.0, K_I=2.0, eta2_ref=0.2,
        xi_Kp=(50.0,), xi_Kd=(15.0,),
    )
    limits = example2.default_limits
    worst_T, worst_u = 0.0, 0.0
    for k in range(wavy_path.n_segments - 1):
        hi = wavy_path.segments[k].domain[1]
        lo2 = wavy_path.segments[k + 1].domain[0]
        y = wavy_path.evaluate(k, hi, 0)
        q = sim.ik_planar3r(y + np.array([0.015, -0.02]), 0.35)
        st = State(q=q, qd=[0.11, -0.07, 0.05])
        outs = []
        for kk, ll in ((k, hi), (k + 1, lo2)):
            ps = projection.ProjectionState(k_star=kk, lambda_star=ll)
            lin = transform.linearize(example2, st.q.tolist(), st.qd.tolist(),
                                      wavy_path, ps)
            v_eta, _ = control.tangential_v(lin.eta, 0.0, gains, dt=0.02)
            v = np.concatenate([[v_eta], control.transversal_v(lin.xi, gains)])
            r = control.bias_r(st.q, limits)
            u = np.array(control.resolve_input(lin.alpha, lin.beta, v, r))
            outs.append((np.concatenate([lin.eta, np.ravel(lin.xi), lin.zeta]), u))
        worst_T = max(worst_T, float(np.abs(outs[0][0] - outs[1][0]).max()))
        du = np.abs(outs[0][1] - outs[1][1]).max()
        worst_u = max(worst_u, float(du / np.abs(outs[0][1]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_T < 1e-7 and worst_u < 1e-6 and elapsed < 30.0
    _verdict(capsys, "criterion 4: junction continuity", ok,
             f"coords={worst_T:.1e} (tol 1e-7), u-jump={worst_u:.1e} "
             f"(tol 1e-6), {elapsed:.1f}s")
    assert ok


def test_criterion_5_invariance_and_attractiveness(capsys, example2):
    scen_on, path, system, eta2_ref = _fig8_setup(example2, offset=0.0)
    scen_off, _, _, _ = _fig8_setup(example2, offset=0.05)
    scen_off.duration = 10.0
    t0 = time.perf_counter()
    log_on = sim.run(scen_on, path=path, system=system)
    xi1_on = np.abs(log_on.xi[:, 0, 0])
    tail = log_on.eta[-1000:, 1]
    eta2_dev = float(np.max(np.abs(tail - eta2_ref)) / eta2_ref)

    log_off = sim.run(scen_off, path=path, system=system)
    xi1_off = np.abs(log_off.xi[:, 0, 0])
    reached = int(np.argmax(xi1_off < 1e-3))
    holds = bool(xi1_off[reached:].max() < 1e-3) and xi1_off[0] > 1e-2

    elapsed = time.perf_counter() - t0
    ok = (
        xi1_on.max() < 1e-5
        and holds
        and eta2_dev < 0.02
        and elapsed < 10.0
    )
    _verdict(capsys, "criterion 5: invariance + attractiveness", ok,
             f"on-path max|xi1|={xi1_on.max():.1e} (tol 1e-5), off-path "
             f"held below 1e-3 from t={log_off.t[reached]:.2f}s, "
             f"eta2 dev={100 * eta2_dev:.2f}%, {elapsed:.1f}s")
    assert ok


def test_criterion_6_redundancy_decoupling(capsys, twisted_path, cpm4):
    t0 = time.perf_counter()
    k0 = 3
    lam0 = 0.5 * sum(twisted_path.segments[k0].domain)
    y0 = twisted_path.evaluate(k0, lam0, 0)
    fj = oracles.frame_jet(twisted_path, k0, lam0)
    qtyp = _ik_cpm4(cpm4, y0, np.deg2rad(103.0))
    eta2_ref = 0.12
    gains = control.OuterLoopGains(
        tangential_mode="velocity", K_P=5.0, K_I=2.0, eta2_ref=eta2_ref,
        xi_Kp=(100.0, 100.0), xi_Kd=(30.0, 30.0),
    )
    band = np.deg2rad(2.0)
    logs, windows_ok = [], []
    for lo3, hi3 in ((np.deg2rad(70.0), np.deg2rad(125.0)),
                     (np.deg2rad(74.0), np.deg2rad(130.0))):
        q0 = _ik_cpm4(cpm4, y0, np.deg2rad(105.0))
        qd0 = np.linalg.solve(
            np.vstack([cpm4.J(q0), [0.0, 1.0, 1.0, 1.0]]),
            np.concatenate([eta2_ref * fj.e[0], [0.0]]),
        )
        limits = dynamics.Limits(
            q_min=[qtyp[0] - 1.5, qtyp[1] - 1.0, qtyp[2] - 1.0, lo3],
            q_max=[qtyp[0] + 1.5, qtyp[1] + 1.0, qtyp[2] + 1.0, hi3],
            u_min=cpm4.default_limits.u_min, u_max=cpm4.default_limits.u_max,
        )
        scen = sim.Scenario(
            plant="cpm4", path_spec={"segments": []}, q0=q0, qd0=qd0,
            gains=gains, duration=6.0, dt=0.005, substeps=2, limits=limits,
            name=f"wrist-window-{np.degrees(lo3):.0f}",
        )
        log = sim.run(scen, path=twisted_path, system=cpm4)
        q3 = log.q[:, 3]
        windows_ok.append(
            bool(np.all((q3 >= lo3 - band) & (q3 <= hi3 + band)))
        )
        logs.append(log)
    a, b = logs
    d_eta = float(np.abs(a.eta - b.eta).max())
    d_xi = float(np.abs(a.xi - b.xi).max())
    zeta_bound = max(log.summary()["max_zeta_norm"] for log in logs)
    elapsed = time.perf_counter() - t0
    ok = (
        d_eta < 1e-3 and d_xi < 1e-3
        and all(windows_ok)
        and zeta_bound < 100.0
        and elapsed < 20.0
    )
    _verdict(capsys, "criterion 6: redundancy decoupling", ok,
             f"|d eta|={d_eta:.1e}, |d xi|={d_xi:.1e} (tol 1e-3), "
             f"windows ok={all(windows_ok)}, max|zeta|={zeta_bound:.2f}, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_oracle_suites(capsys, wavy_path, example2):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # (a) constrained least squares vs a KKT oracle
    qp_worst = 0.0
    n_done = 0
    while n_done < 1000:
        N = int(rng.integers(2, 6))
        p = int(rng.integers(1, N))
        beta = rng.normal(size=(p, N))
        if np.linalg.cond(beta @ beta.T) > 1e6:
            continue
        alpha, v = rng.normal(size=p), rng.normal(size=p)
        r = rng.normal(size=N)
        L = rng.normal(size=(N, N))
        W = L @ L.T + N * np.eye(N)
        u = control.resolve_input(alpha, beta, v, r, W)
        K = np.block([[W, beta.T], [beta, np.zeros((p, p))]])
        sol = np.linalg.solve(K, np.concatenate([W @ r, v - alpha]))
        qp_worst = max(qp_worst, float(np.abs(u - sol[:N]).max()))
        n_done += 1

    # (b) projection vs dense-grid closest point
    proj_worst = 0.0
    for _ in range(10):
        y = rng.uniform([0.5, -1.0], [2.5, 1.0])
        st = projection.global_initialize(wavy_path, y)
        d_star = np.linalg.norm(
            wavy_path.evaluate(st.k_star, st.lambda_star, 0) - y
        )
        d_ref = min(
            np.linalg.norm(
                seg.evaluate(np.linspace(*seg.domain, 8000), 0) - y, axis=1
            ).min()
            for seg in wavy_path.segments
        )
        proj_worst = max(proj_worst, float(d_star - d_ref))

    # (c) frame derivatives vs central differences
    fd_worst = 0.0
    h = 1e-5
    for _ in range(8):
        k = int(rng.integers(wavy_path.n_segments))
        lo, hi = wavy_path.segments[k].domain
        lam = rng.uniform(lo + 2 * h, hi - 2 * h)
        fj = oracles.frame_jet(wavy_path, k, lam)
        fp = oracles.frame_jet(wavy_path, k, lam + h)
        fm = oracles.frame_jet(wavy_path, k, lam - h)
        fd_worst = max(
            fd_worst, float(np.abs((fp.e - fm.e) / (2 * h) - fj.de).max())
        )

    # (d) closed-loop consistency: measured etadot_2 vs commanded v_eta
    scen, path, system, _ = _fig8_setup(example2)
    scen.dt = 0.002  # the hold interval bounds the comparison error
    dt = scen.dt
    q, qd = scen.q0.tolist(), scen.qd0.tolist()
    ps = projection.global_initialize(path, system.h(q))
    integral = 0.0
    policy = scen.frame_policy
    eta2_hist, v_hist = [], []
    for s in range(1500):
        u, integral, diag = control.step(
            system, path, q, qd, ps, integral, scen.gains,
            limits=scen.limits, policy=policy, dt=dt, t=s * dt,
        )
        ps = diag.projection
        eta2_hist.append(diag.lin.eta[1])
        v_hist.append(diag.v[0])
        q, qd = sim._rk4_hold(system, q, qd, u, dt / scen.substeps,
                              scen.substeps)
    eta2 = np.asarray(eta2_hist)
    v_eta = np.asarray(v_hist)
    etadot2 = (eta2[2:] - eta2[:-2]) / (2 * dt)
    lie_worst = float(np.abs(etadot2 - v_eta[1:-1]).max())

    elapsed = time.perf_counter() - t0
    ok = (
        qp_worst < 1e-8
        and proj_worst < 1e-5
        and fd_worst < 1e-5
        and lie_worst < 1e-3
        and elapsed < 120.0
    )
    _verdict(capsys, "criterion 7: oracle suites", ok,
             f"qp={qp_worst:.1e} (1e-8), proj={proj_worst:.1e}, "
             f"frames={fd_worst:.1e} (1e-5), lie={lie_worst:.1e} (1e-3), "
             f"{elapsed:.0f}s")
    assert ok


def test_criterion_8_no_branch_jump(capsys, fig8_path, example2):
    crossing = np.array([1.5, 0.3])
    # approach the crossing along the branch ending segment 15 -> 0
    cfg = projection.ProjectionConfig()
    ps = projection.ProjectionState(
        k_star=15, lambda_star=0.9 * fig8_path.segments[15].domain[1],
    )
    ks = set()
    for _ in range(100):
        ps = projection.update(ps, fig8_path, crossing, cfg)
        ks.add(ps.k_star)
    # the other branch passes through the crossing at segment 8
    ok = ks.issubset({15, 0}) and 8 not in ks
    _verdict(capsys, "criterion 8: no jump at self-intersection", ok,
             f"segments visited={sorted(ks)}, other branch=8")
    assert ok
