"""Maximal monotone operators represented through their resolvents.

An operator A on R^d enters every algorithm in this package only through two
maps: the resolvent J_lam(z) = (I + lam A)^{-1}(z) and the nearest-point
projection onto the closure of its domain.  This keeps multivalued operators
(normal cones, subdifferentials) representable without set-valued data.

Besides the resolvent calculus (Yosida maps J_n, A_n) the module provides the
constant-input flow: the semigroup t -> x(t) solving dx/dt in -A(x(t)) from a
point of the domain closure, approximated by iterated implicit resolvent
steps x <- J_{t/m}(x): ``flow`` and the grid march of ``skorokhod`` read
only its endpoint, ``flow_endpoint``; the solution checkers of ``skorokhod``
read every state, ``flow_steps``.  Built-in constructors cover normal cones
of halfspaces, boxes, balls and polyhedra, linear positive-semidefinite
operators, and subdifferentials given by a proximal map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainViolationError, NonConvergenceError

__all__ = [
    "MonotoneOperator",
    "DEFAULT_DOMAIN_TOL",
    "MIN_RESOLVENT_STEP",
    "resolve",
    "yosida_j",
    "yosida_a",
    "flow",
    "flow_endpoint",
    "flow_steps",
    "indicator_halfspace",
    "indicator_box",
    "indicator_ball",
    "indicator_polyhedron",
    "linear_monotone",
    "convex_prox",
]

# Euclidean tolerance for domain membership checks.
DEFAULT_DOMAIN_TOL = 1e-8
# Resolvent step sizes below this are rejected; callers always pass
# lam >= mesh/substeps, so hitting the bound indicates a degenerate grid.
MIN_RESOLVENT_STEP = 1e-15
# Distinct step sizes whose inverse a linear operator keeps before it forgets
# them all; a path has few distinct steps, a random check has fresh ones.
_LINEAR_INVERSE_CACHE = 64


@dataclass(frozen=True, eq=False)
class MonotoneOperator:
    """A maximal monotone operator given by resolvent and domain geometry.

    Fields
    ------
    dimension:
        ambient dimension d.
    resolvent:
        (lam, z) -> the unique y with y + lam*a = z for some a in A(y), as a
        float array of shape (d,).  Non-expansive in z for every lam > 0.
    domain_projection:
        nearest-point projection onto the closed convex domain closure; must
        act as the exact identity on points already inside.
    graph_sample:
        optional z -> one element of A(z) (diagnostics only); None where the
        operator offers no canonical selection.
    projection_resolvent:
        True when resolvent(lam, .) coincides with domain_projection for
        every lam (normal-cone operators).  Enables exact single-step flows.
    spec:
        optional (kind, parameters) dictionary used by the configuration
        layer to round-trip built-in operators.

    Instances are immutable; all maps must be pure functions, so operators
    are safe to share across threads and processes.  A map may keep an
    internal memo (``linear_monotone`` caches one inverse per step size) as
    long as its outputs remain pure functions of its arguments, here
    ``(lam, z)``, and never alias the memo.
    """

    dimension: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]
    domain_projection: Callable[[np.ndarray], np.ndarray]
    graph_sample: Callable[[np.ndarray], np.ndarray] | None = None
    projection_resolvent: bool = False
    spec: dict | None = None

    def domain_distance(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(np.linalg.norm(z - self.domain_projection(z)))

    def in_domain(self, z: np.ndarray, tol: float = DEFAULT_DOMAIN_TOL) -> bool:
        """Whether dist(z, closure of D(A)) <= tol."""
        return self.domain_distance(z) <= tol


def _check_point(op: MonotoneOperator, z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (op.dimension,):
        raise ValueError(f"expected a point in R^{op.dimension}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    return z


def _check_step(lam: float) -> float:
    lam = float(lam)
    if not np.isfinite(lam) or lam < MIN_RESOLVENT_STEP:
        raise ValueError(
            f"resolvent step must be a finite real >= {MIN_RESOLVENT_STEP}, got {lam}"
        )
    return lam


def resolve(op: MonotoneOperator, lam: float, z) -> np.ndarray:
    """J_lam(z) = (I + lam A)^{-1}(z)."""
    lam = _check_step(lam)
    z = _check_point(op, z)
    return np.asarray(op.resolvent(lam, z), dtype=float)


def yosida_j(op: MonotoneOperator, n: float, z) -> np.ndarray:
    """J_n(z) = (I + A/n)^{-1}(z); equals resolve(op, 1/n, z)."""
    n = float(n)
    if not (n > 0):
        raise ValueError("n must be positive")
    return resolve(op, 1.0 / n, z)


def yosida_a(op: MonotoneOperator, n: float, z) -> np.ndarray:
    """Yosida approximation A_n(z) = n (z - J_n(z)).

    Single-valued, Lipschitz with constant n, and monotone for every n > 0.
    """
    n = float(n)
    if not (n > 0):
        raise ValueError("n must be positive")
    z = _check_point(op, z)
    return n * (z - resolve(op, 1.0 / n, z))


def _flow_schedule(op: MonotoneOperator, t: float, substeps: int) -> tuple[float, int]:
    """(lam, m): m resolvent steps of size t/substeps, or one exact step of
    size t for a projection resolvent; m = 0 for t = 0."""
    if t == 0.0:
        return 0.0, 0
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if op.projection_resolvent:
        return _check_step(t), 1
    return _check_step(t / substeps), substeps


def flow_endpoint(op: MonotoneOperator, start: np.ndarray, t: float,
                  substeps: int) -> np.ndarray:
    """J_lam^m(start), the last state of ``flow_steps`` (``start`` as a float
    array for t = 0); each resolvent value goes straight into the next call."""
    lam, m = _flow_schedule(op, t, substeps)
    x = start
    for _ in range(m):
        x = op.resolvent(lam, x)
    return np.asarray(x, dtype=float)


def flow_steps(op: MonotoneOperator, start: np.ndarray, t: float, substeps: int):
    """Implicit resolvent stepping for the constant-input flow.

    Returns the list of (lam, state) pairs visited by x <- J_lam(x); each
    step certifies (prev - state)/lam in A(state).  Only the solution
    checkers ``skorokhod.verify_solution`` and ``pair_inequality_report``
    read these intermediates.
    """
    lam, m = _flow_schedule(op, t, substeps)
    out = []
    x = start
    for _ in range(m):
        x = np.asarray(op.resolvent(lam, x), dtype=float)
        out.append((lam, x))
    return out


def flow(op: MonotoneOperator, start, t: float, substeps: int,
         domain_tol: float = DEFAULT_DOMAIN_TOL) -> np.ndarray:
    """Constant-input flow from ``start`` over time t (Crandall-Liggett steps).

    First-order accurate in t/substeps against the exact semigroup and
    unconditionally stable; exact for normal-cone operators.  ``start`` must
    lie in the domain closure within ``domain_tol``; t = 0 returns ``start``
    unchanged.
    """
    start = _check_point(op, start)
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if t == 0.0:
        return start.copy()
    dist = op.domain_distance(start)
    if dist > domain_tol:
        raise DomainViolationError(
            f"flow start outside the domain closure (distance {dist:.3e})",
            point=start, distance=dist,
        )
    return flow_endpoint(op, start, t, substeps).copy()


# ---------------------------------------------------------------------------
# built-in constructors


def indicator_halfspace(normal, offset: float) -> MonotoneOperator:
    """Normal cone of the halfspace {x : <normal, x> <= offset}."""
    a = np.atleast_1d(np.asarray(normal, dtype=float))
    b = float(offset)
    nrm2 = float(a @ a)
    if not np.all(np.isfinite(a)) or nrm2 == 0.0:
        raise ValueError("halfspace normal must be finite and nonzero")

    def project(z):
        excess = float(a @ z) - b
        if excess <= 0.0:
            return z
        return z - (excess / nrm2) * a

    unit = a / np.sqrt(nrm2)

    def sample(z):
        if float(a @ z) - b < -DEFAULT_DOMAIN_TOL:
            return np.zeros_like(a)
        return unit.copy()

    return MonotoneOperator(
        dimension=a.size,
        resolvent=lambda lam, z: project(z),
        domain_projection=project,
        graph_sample=sample,
        projection_resolvent=True,
        spec={"kind": "halfspace", "normal": a.tolist(), "offset": b},
    )


def indicator_box(lo, hi) -> MonotoneOperator:
    """Normal cone of the box [lo_1, hi_1] x ... x [lo_d, hi_d].

    Bounds may be infinite; the interior must be nonempty (lo < hi
    componentwise).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have the same shape")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValueError("box bounds must not be NaN")
    if not np.all(lo < hi):
        raise ValueError("box must have nonempty interior (lo < hi componentwise)")

    def project(z):
        return np.clip(z, lo, hi)

    def sample(z):
        out = np.zeros_like(lo)
        out[z >= hi] = 1.0
        out[z <= lo] = -1.0
        return out

    return MonotoneOperator(
        dimension=lo.size,
        resolvent=lambda lam, z: project(z),
        domain_projection=project,
        graph_sample=sample,
        projection_resolvent=True,
        spec={"kind": "box", "lo": lo.tolist(), "hi": hi.tolist()},
    )


def indicator_ball(center, radius: float) -> MonotoneOperator:
    """Normal cone of the closed Euclidean ball B(center, radius)."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    r = float(radius)
    if not np.all(np.isfinite(c)) or not (r > 0):
        raise ValueError("ball needs a finite center and a positive radius")

    def project(z):
        d = z - c
        nd = float(np.linalg.norm(d))
        if nd <= r:
            return z
        return c + d * (r / nd)

    def sample(z):
        d = z - c
        nd = float(np.linalg.norm(d))
        if nd < r - DEFAULT_DOMAIN_TOL:
            return np.zeros_like(c)
        if nd == 0.0:
            return np.zeros_like(c)
        return d / nd

    return MonotoneOperator(
        dimension=c.size,
        resolvent=lambda lam, z: project(z),
        domain_projection=project,
        graph_sample=sample,
        projection_resolvent=True,
        spec={"kind": "ball", "center": c.tolist(), "radius": r},
    )


def _chebyshev_radius(normals: np.ndarray, offsets: np.ndarray) -> float:
    # largest inscribed ball radius; > 0 iff the polyhedron has interior
    from scipy.optimize import linprog

    m, d = normals.shape
    row_norms = np.linalg.norm(normals, axis=1)
    a_ub = np.hstack([normals, row_norms[:, None]])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=offsets,
                  bounds=[(None, None)] * d + [(0.0, None)], method="highs")
    if res.status == 3:  # unbounded radius: domain contains arbitrarily large balls
        return np.inf
    if not res.success:
        return -np.inf
    return float(res.x[-1])


def indicator_polyhedron(halfspaces, dykstra_tol: float = 1e-10,
                         dykstra_max_iter: int = 10_000) -> MonotoneOperator:
    """Normal cone of an intersection of halfspaces {x : <a_i, x> <= b_i}.

    ``halfspaces`` is a sequence of (normal, offset) pairs.  The projection
    has no closed form; it is computed by alternating projections with
    Dykstra's correction, which converges to the true nearest point for
    intersections of convex sets.  Feasibility and nonempty interior are
    certified up front via the Chebyshev-center linear program.
    """
    pairs = [(np.atleast_1d(np.asarray(a, dtype=float)), float(b)) for a, b in halfspaces]
    if not pairs:
        raise ValueError("polyhedron needs at least one halfspace")
    d = pairs[0][0].size
    normals = np.vstack([a for a, _ in pairs])
    offsets = np.asarray([b for _, b in pairs])
    if normals.shape[1] != d or np.any(np.linalg.norm(normals, axis=1) == 0.0):
        raise ValueError("halfspace normals must be nonzero and share one dimension")
    if _chebyshev_radius(normals, offsets) <= 0.0:
        raise ValueError("polyhedron is empty or has empty interior")
    nrm2 = np.einsum("ij,ij->i", normals, normals)
    m = normals.shape[0]

    def project(z):
        if np.all(normals @ z <= offsets):
            return z
        x = z.astype(float, copy=True)
        corrections = np.zeros((m, d))
        for _ in range(dykstra_max_iter):
            shift = 0.0
            for i in range(m):
                y = x + corrections[i]
                excess = float(normals[i] @ y) - offsets[i]
                if excess > 0.0:
                    x_new = y - (excess / nrm2[i]) * normals[i]
                else:
                    x_new = y
                corrections[i] = y - x_new
                shift += float(np.linalg.norm(x_new - x))
                x = x_new
            if shift < dykstra_tol:
                return x
        raise NonConvergenceError(
            f"Dykstra projection did not stabilize in {dykstra_max_iter} sweeps",
            last=x, residual=shift,
        )

    def sample(z):
        slack = offsets - normals @ z
        if np.any(slack < -DEFAULT_DOMAIN_TOL):
            return None
        active = slack <= DEFAULT_DOMAIN_TOL
        if not np.any(active):
            return np.zeros(d)
        out = normals[active].sum(axis=0)
        n = np.linalg.norm(out)
        return out / n if n > 0 else out

    return MonotoneOperator(
        dimension=d,
        resolvent=lambda lam, z: project(z),
        domain_projection=project,
        graph_sample=sample,
        projection_resolvent=True,
        spec={
            "kind": "polyhedron",
            "normals": normals.tolist(),
            "offsets": offsets.tolist(),
        },
    )


def linear_monotone(matrix) -> MonotoneOperator:
    """A(x) = M x for a positive-semidefinite M (domain all of R^d).

    The resolvent applies the inverse (I + lam M)^{-1}, formed once per exact
    step size ``lam`` and memoised: a path has few distinct steps, and one
    matrix-vector product is far cheaper than a fresh solve.  The memo holds
    at most ``_LINEAR_INVERSE_CACHE`` step sizes and is emptied when full, so
    a stream of fresh steps costs one inversion each.  Forming the inverse is
    safe: <Mx, x> >= 0 gives |(I + lam M)x| >= |x|, hence
    |(I + lam M)^{-1}| <= 1 and the condition number is at most
    1 + lam |M|.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ValueError("matrix must be square and finite")
    sym_eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    if sym_eigs.min() < -1e-10:
        raise ValueError("matrix must satisfy <Mx, x> >= 0")
    d = m.shape[0]
    eye = np.eye(d)

    # Threads sharing the operator may race on the memo; each call still uses
    # its own correct inverse, so a race costs at most one extra inversion.
    inverses: dict[float, np.ndarray] = {}

    def resolvent(lam, z):
        lam = float(lam)
        inv = inverses.get(lam)
        if inv is None:
            if len(inverses) >= _LINEAR_INVERSE_CACHE:
                inverses.clear()
            inv = inverses[lam] = np.linalg.inv(eye + lam * m)
        return inv.dot(z)

    return MonotoneOperator(
        dimension=d,
        resolvent=resolvent,
        domain_projection=lambda z: z,
        graph_sample=lambda z: m @ z,
        projection_resolvent=False,
        spec={"kind": "linear", "matrix": m.tolist()},
    )


def convex_prox(prox: Callable[[float, np.ndarray], np.ndarray], dimension: int,
                domain_projection: Callable[[np.ndarray], np.ndarray] | None = None,
                graph_sample: Callable[[np.ndarray], np.ndarray] | None = None) -> MonotoneOperator:
    """Subdifferential of a convex function given through its proximal map.

    ``prox(lam, z)`` must return argmin_y phi(y) + |y - z|^2 / (2 lam), which
    is exactly the resolvent of the subdifferential.  When the effective
    domain is not all of R^d, pass its nearest-point projection.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return MonotoneOperator(
        dimension=dimension,
        resolvent=lambda lam, z: np.asarray(prox(lam, z), dtype=float),
        domain_projection=domain_projection or (lambda z: z),
        graph_sample=graph_sample,
        projection_resolvent=False,
        spec=None,
    )
