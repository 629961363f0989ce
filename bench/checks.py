"""Output checks made apart from the package.

Each check takes what a workload wrote (the run-log CSV, the serialized
path coefficients, the portrait's equilibria file and failure mask) and
returns a list of problems; an empty list means the output passed.
Nothing here calls into ``splinefollow``: positions come from the arms'
own forward kinematics, curve points from ``numpy.polynomial`` on the
segment coefficients, and arclength from Gauss-Legendre quadrature.
"""

import numpy as np
from numpy.polynomial import legendre, polynomial

COARSE_GRID = 2048     # points per segment of the dense-grid oracle
FINE_GRID = 2049       # points in the refinement around each coarse minimum
DIST_TOL = 2e-8        # tracked distance may exceed the grid minimum by this
NORMAL_TOL = 1e-7      # |<h(q) - sigma, sigma'>| / |sigma'| in metres
# eta_1 increment against the trapezoid of eta_2, metres per period.  The
# input is held over a period, so eta_2 curves inside it: the rule is off
# by up to 2.5e-6 in the 4-DOF start-up transient, 3e-8 on the figure-eight.
ETA_TOL = 1e-5
BAND = np.deg2rad(2.0)  # joint-window slack of criterion 6


# --- forward kinematics -------------------------------------------------------


def fk_planar3r(q):
    """Tip of the unit-link planar 3R arm, rows of q -> rows of (x, y)."""
    phi = np.cumsum(np.atleast_2d(q), axis=1)
    return np.column_stack([np.cos(phi).sum(1), np.sin(phi).sum(1)])


CPM_LENGTHS = np.array([0.45, 0.40, 0.30])
CPM_BASE_HEIGHT = 0.30


def fk_cpm4(q):
    """Tool point of the 4-DOF arm: waist q0, planar shoulder/elbow/wrist."""
    q = np.atleast_2d(q)
    phi = np.cumsum(q[:, 1:], axis=1)
    reach = np.cos(phi) @ CPM_LENGTHS
    height = CPM_BASE_HEIGHT + np.sin(phi) @ CPM_LENGTHS
    return np.column_stack(
        [np.cos(q[:, 0]) * reach, np.sin(q[:, 0]) * reach, height]
    )


# --- run logs and paths -----------------------------------------------------


def read_log(filename):
    """Columns of a run-log CSV, with q, qd and xi1 stacked per joint."""
    with open(filename) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2)
    col = {name: data[:, i] for i, name in enumerate(header)}

    def stack(prefix):
        names = [n for n in header if n.startswith(prefix)
                 and n[len(prefix):].isdigit()]
        return np.column_stack([col[n] for n in names]) if names else None

    return {
        "t": col["t"], "q": stack("q"), "qd": stack("qd"),
        "eta1": col["eta1"], "eta2": col["eta2"], "xi1": stack("xi1_"),
        "k": col["k_star"].astype(int), "lam": col["lambda_star"],
    }


class PolyPath:
    """A serialized polynomial path, evaluated with numpy.polynomial."""

    def __init__(self, path_dict):
        self.coeffs = [np.asarray(s["coeffs"], float) for s in path_dict["segments"]]
        self.domains = [tuple(s["domain"]) for s in path_dict["segments"]]
        self.closed = bool(path_dict["closed"])
        nodes, weights = legendre.leggauss(64)
        self.lengths = np.array([
            0.5 * (hi - lo) * weights @ np.linalg.norm(
                self.eval(k, 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 1),
                axis=1)
            for k, (lo, hi) in enumerate(self.domains)
        ])
        self._coarse = [np.linspace(lo, hi, COARSE_GRID) for lo, hi in self.domains]
        self._coarse_pts = [self.eval(k, g) for k, g in enumerate(self._coarse)]

    @property
    def n_segments(self):
        return len(self.coeffs)

    def eval(self, k, lam, order=0):
        """d^order sigma_k / d lambda^order at lam, shape (len(lam), p)."""
        c = self.coeffs[k]
        return np.column_stack([
            polynomial.polyval(lam, polynomial.polyder(row, order) if order else row)
            for row in c
        ])

    def grid_distance(self, y):
        """Dense-grid minimum distance from y to the whole path.

        The coarse minimum of every segment is refined on a fine grid
        over its two neighbouring coarse cells.
        """
        best = np.inf
        for k, (lams, pts) in enumerate(zip(self._coarse, self._coarse_pts)):
            i = int(np.argmin(np.linalg.norm(pts - y, axis=1)))
            fine = np.linspace(lams[max(i - 1, 0)], lams[min(i + 1, len(lams) - 1)],
                               FINE_GRID)
            best = min(best, float(np.min(
                np.linalg.norm(self.eval(k, fine) - y, axis=1))))
        return best


# --- checks ---------------------------------------------------------------------


def tracked_point(log, path, fk, periods):
    """sigma(k*, lambda*) is the closest path point to h(q) and normal to it."""
    problems = []
    y = fk(log["q"][periods])
    for y_i, i in zip(y, periods):
        k, lam = log["k"][i], log["lam"][i]
        sigma = path.eval(k, [lam])[0]
        dsigma = path.eval(k, [lam], 1)[0]
        dist = float(np.linalg.norm(y_i - sigma))
        grid = path.grid_distance(y_i)
        if dist > grid + DIST_TOL:
            problems.append(f"period {i}: tracked distance {dist:.3e} exceeds "
                            f"the grid minimum {grid:.3e}")
        normal = abs((y_i - sigma) @ dsigma) / np.linalg.norm(dsigma)
        if normal > NORMAL_TOL:
            problems.append(f"period {i}: <h(q) - sigma, sigma'>/|sigma'| = "
                            f"{normal:.3e}")
    return problems


def segment_sequence(log, path):
    """k* only advances by +1 modulo the segment count, around a full lap."""
    n = path.n_segments
    steps = np.diff(log["k"]) % n
    bad = np.flatnonzero(steps > 1)
    problems = [f"period {i + 1}: k* jumped {log['k'][i]} -> {log['k'][i + 1]}"
                for i in bad[:5]]
    advances = int(np.sum(steps == 1))
    if path.closed and advances < n:
        problems.append(f"only {advances} segment hand-offs in a lap of {n}")
    if path.closed and not np.any(np.diff(log["k"]) == 1 - n):
        problems.append("k* never wrapped from the last segment to the first")
    return problems


def eta_increments(log, path, dt):
    """eta_1 increments match the trapezoid integral of eta_2 (mod length)."""
    total = float(path.lengths.sum())
    d_eta1 = np.diff(log["eta1"])
    if path.closed:
        d_eta1 = (d_eta1 + 0.5 * total) % total - 0.5 * total
    trapz = 0.5 * dt * (log["eta2"][1:] + log["eta2"][:-1])
    err = np.abs(d_eta1 - trapz)
    if err.max() > ETA_TOL:
        i = int(np.argmax(err))
        return [f"period {i + 1}: eta_1 increment off the trapezoid of eta_2 "
                f"by {err[i]:.3e}"]
    return []


def fig8_criteria(log, eta2_ref):
    """Criterion 5: max |xi_1| < 1e-5 and the tail eta_2 within 2 %."""
    problems = []
    xi1 = float(np.max(np.abs(log["xi1"])))
    if xi1 >= 1e-5:
        problems.append(f"max |xi_1| = {xi1:.2e} (limit 1e-5)")
    tail = log["eta2"][-len(log["eta2"]) // 4:]
    dev = float(np.max(np.abs(tail - eta2_ref)) / eta2_ref)
    if dev >= 0.02:
        problems.append(f"tail eta_2 off eta2_ref by {100 * dev:.2f} % (limit 2 %)")
    return problems


def twisted_criteria(log, q_min, q_max):
    """Criterion 6: xi_1 decays and the wrist q_3 keeps its window +- 2 deg."""
    problems = []
    norm = np.linalg.norm(log["xi1"], axis=1)
    n = len(norm)
    head, tail = norm[: n // 4].max(), norm[-n // 4:].max()
    if not tail < max(0.1 * head, 1e-6):
        problems.append(f"|xi_1| does not decay: {head:.2e} early, {tail:.2e} late")
    q3 = log["q"][:, 3]
    if np.any(q3 < q_min - BAND) or np.any(q3 > q_max + BAND):
        problems.append(f"wrist q3 left [{q_min:.3f}, {q_max:.3f}] +- 2 deg: "
                        f"range {q3.min():.3f}..{q3.max():.3f}")
    return problems


def two_mass_final(log, eta1_ref, line_start, q1_mid):
    """Criterion 2: the output at eta1_ref, zeta at the joint-limit midpoint."""
    problems = []
    q, qd = log["q"][-1], log["qd"][-1]
    target = eta1_ref + line_start
    for label, value, want in (("q2", q[1], target), ("zeta1", q[0], q1_mid),
                               ("zeta2", qd[0], 0.0)):
        if abs(value - want) >= 1e-3:
            problems.append(f"final {label} = {value:.6f}, expected {want:.6f}")
    return problems


def reach_bound(radius):
    """Largest tool angle at which the unit-link wrist reaches (R, 0)."""
    return float(np.arccos((radius**2 - 3.0) / (2.0 * radius)))


def portrait(equilibria, grid, failed, radius):
    """Criterion 3 on a reduced grid, plus the reachable-set failure marks.

    ``equilibria`` is the list written to the equilibria JSON file.
    """
    problems = []
    bound = reach_bound(radius)
    stable = [e for e in equilibria if e["stable"]]
    unstable = [e for e in equilibria if not e["stable"]]
    if len(stable) != 1:
        problems.append(f"{len(stable)} stable equilibria, expected 1")
    else:
        z, re = np.asarray(stable[0]["zeta"]), np.asarray(stable[0]["eigenvalues_real"])
        if np.linalg.norm(z) >= 1e-2:
            problems.append(f"stable equilibrium at {z}, expected within 1e-2 of 0")
        if not np.all(re < 0.0):
            problems.append(f"stable equilibrium has eigenvalue real parts {re}")
    if len(unstable) != 1:
        problems.append(f"{len(unstable)} unstable equilibria, expected 1")
    elif abs(unstable[0]["zeta"][0] - bound) > 1e-6 or unstable[0]["zeta"][1] != 0.0:
        problems.append(f"unstable equilibrium at {unstable[0]['zeta']}, "
                        f"expected ({bound:.6f}, 0)")
    beyond = np.asarray(grid)[:, 0] > bound
    failed = np.asarray(failed, dtype=bool)
    if np.any(failed & ~beyond):
        problems.append(f"{int(np.sum(failed & ~beyond))} reachable grid points "
                        "marked failed")
    if np.any(beyond & ~failed):
        problems.append(f"{int(np.sum(beyond & ~failed))} unreachable grid points "
                        "not marked failed")
    return problems
