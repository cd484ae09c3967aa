"""Maximal monotone operators represented through their resolvents.

An operator A on R^d enters every algorithm in this package only through two
maps: the resolvent J_lam(z) = (I + lam A)^{-1}(z) and the nearest-point
projection onto the closure of its domain.  This keeps multivalued operators
(normal cones, subdifferentials) representable without set-valued data.

Besides the resolvent calculus (Yosida maps J_n, A_n) the module provides the
constant-input flow: the semigroup t -> x(t) solving dx/dt in -A(x(t)) from a
point of the domain closure, approximated by iterated implicit resolvent
steps x <- J_{t/m}(x): ``flow`` and ``flow_endpoint`` give its endpoint,
``flow_steps`` every state (for the solution checkers of ``skorokhod``).
These public maps check their arguments on every call.  A grid march checks
all its steps once, at its entry, with ``_flow_schedule``, and then flows
through the unchecked ``_flow_kernel``.  Built-in constructors cover normal
cones of halfspaces, boxes, balls and polyhedra, linear positive-semidefinite
operators, and subdifferentials given by a proximal map.
"""

from __future__ import annotations

import functools
import math
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
# The ufunc behind np.clip, whose Python wrapper costs twice the clip itself on
# the small batches of a march; the box projection calls it directly.
_clip = getattr(np._core.umath, "clip", np.clip)


@dataclass(frozen=True, eq=False)
class MonotoneOperator:
    """A maximal monotone operator given by resolvent and domain geometry.

    Fields
    ------
    dimension:
        ambient dimension d.
    resolvent:
        (lam, z) -> the unique y with y + lam*a = z for some a in A(y), as a
        float array of z's shape.  Non-expansive in z for every lam > 0.
        ``lam`` is one step (a float) or, for a batch z of shape (B, d), one
        step per row (a float array of shape (B,)): row i is then the
        single-point call with step ``lam[i]``.  Projection kinds ignore the
        step.  The function may carry an attribute ``power(lam, m, z)``:
        J_lam^m(z), equal bit for bit to m successive resolvent calls, which
        a flow then makes in one call.  It belongs to the
        function, so ``dataclasses.replace(op, resolvent=f)`` drops it
        unless ``f`` carries its own.
    domain_projection:
        nearest-point projection onto the closed convex domain closure; must
        act as the exact identity on points already inside.
    graph_sample:
        optional z -> one element of A(z) for a single point (diagnostics
        only); None where the operator offers no canonical selection.
    projection_resolvent:
        True when resolvent(lam, .) coincides with domain_projection for
        every lam (normal-cone operators).  Enables exact single-step flows.
    spec:
        optional (kind, parameters) dictionary used by the configuration
        layer to round-trip built-in operators.

    The maps and ``domain_distance``/``in_domain`` take a point (d,) or a
    batch (B, d).  Row contract: row i of a batched call equals the
    single-point call on row i bit for bit (``linear_monotone`` with one
    float step to 1e-15 relative: that batched product is one matrix-matrix
    product; with one step per row it is bit for bit too).

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

    def domain_distance(self, z: np.ndarray):
        """dist(z, closure of D(A)): a float for a point, a (B,) array for a batch."""
        z = as_points(z)
        return row_norm(z - self.domain_projection(z))

    def in_domain(self, z: np.ndarray, tol: float = DEFAULT_DOMAIN_TOL):
        """Whether dist(z, closure of D(A)) <= tol, per point."""
        return self.domain_distance(z) <= tol


def row_norm(v: np.ndarray):
    """Euclidean norm of a vector or of each row of a batch: ``np.linalg.norm``
    of the row bit for bit, which ``np.linalg.norm(v, axis=1)`` is not."""
    return np.sqrt(np.vecdot(v, v))


def as_points(z) -> np.ndarray:
    """z as a float array of at least one dimension, not copied if it is one."""
    return np.array(z, dtype=float, ndmin=1, copy=None)


def _check_point(op: MonotoneOperator, z) -> np.ndarray:
    z = as_points(z)
    if z.ndim > 2 or z.shape[-1] != op.dimension:
        raise ValueError(f"expected a point in R^{op.dimension} or a batch of shape "
                         f"(B, {op.dimension}), got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("point must be finite")
    return z


def _check_step(lam):
    """A resolvent step as a float, or steps given one per row as a float
    array; each must be finite and at least ``MIN_RESOLVENT_STEP``."""
    if isinstance(lam, float) or not np.ndim(lam):
        lam = float(lam)  # math, not numpy, on the float of every ``resolve``
        bad = [] if MIN_RESOLVENT_STEP <= lam < math.inf else [lam]
    else:
        lam = np.asarray(lam, dtype=float)  # the extremes fail if any step does, NaN too
        ok = not lam.size or MIN_RESOLVENT_STEP <= lam.min() and lam.max() < math.inf
        bad = [] if ok else [v for v in lam.tolist() if not MIN_RESOLVENT_STEP <= v < math.inf]
    if bad:
        raise ValueError(f"resolvent step must be a finite real >= {MIN_RESOLVENT_STEP}, "
                         f"got {bad[0]}")
    return lam


def _per_row(lam) -> bool:
    """Whether ``lam`` gives one resolvent step per row of a batch."""
    return isinstance(lam, np.ndarray) and lam.ndim > 0


def resolve(op: MonotoneOperator, lam, z) -> np.ndarray:
    """J_lam(z) = (I + lam A)^{-1}(z), of a point (d,) or a batch (B, d).

    ``lam`` is one step, or one step per row of a batch (shape (B,)).
    """
    lam = _check_step(lam)
    z = _check_point(op, z)
    if _per_row(lam) and (z.ndim != 2 or lam.shape != z.shape[:1]):
        raise ValueError(f"one step per row needs a batch of {lam.size} rows, "
                         f"got shape {z.shape}")
    return np.asarray(op.resolvent(lam, z), dtype=float)


def _check_level(n):
    """A Yosida level n > 0 as a float, or levels one per row as an array."""
    n = n if isinstance(n, float) else np.asarray(n, dtype=float)
    if not np.all(n > 0):
        raise ValueError("n must be positive")
    return n if _per_row(n) else float(n)


def yosida_j(op: MonotoneOperator, n, z) -> np.ndarray:
    """J_n(z) = (I + A/n)^{-1}(z); equals resolve(op, 1/n, z).  ``n`` may
    give one level per row of a batch."""
    return resolve(op, 1.0 / _check_level(n), z)


def yosida_a(op: MonotoneOperator, n, z) -> np.ndarray:
    """Yosida approximation A_n(z) = n (z - J_n(z)).

    Single-valued, Lipschitz with constant n, and monotone for every n > 0.
    ``n`` may give one level per row of a batch.
    """
    n = _check_level(n)
    z = _check_point(op, z)
    j = resolve(op, 1.0 / n, z)
    return (n[:, None] if _per_row(n) else n) * (z - j)


def _flow_schedule(op: MonotoneOperator, t, substeps: int):
    """(lam, m): m resolvent steps of size t/substeps, or one exact step of
    size t for a projection resolvent; m = 0 for t = 0.  ``t`` may be one
    positive time per row of a batch, and ``lam`` is then one step per row."""
    if not isinstance(t, np.ndarray) and t == 0.0:
        return 0.0, 0
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if op.projection_resolvent:
        return _check_step(t), 1
    return _check_step(t / substeps), substeps


def _flow_kernel(op: MonotoneOperator, substeps: int):
    """``(start, t) -> J_{t/m}^m(start)`` without checks, for a t > 0 or one
    positive time per row of a batch of starts that ``_flow_schedule`` has
    passed: one resolvent call of step t for a projection resolvent, one
    ``power`` call when the resolvent has one, else m successive calls."""
    resolvent = op.resolvent
    if op.projection_resolvent:
        return lambda start, t: np.asarray(resolvent(t, start), dtype=float)
    power = getattr(resolvent, "power", None)
    if power is not None:
        return lambda start, t: np.asarray(power(t / substeps, substeps, start), dtype=float)

    def loop(start, t):
        lam, x = t / substeps, start
        for _ in range(substeps):
            x = resolvent(lam, x)
        return np.asarray(x, dtype=float)
    return loop


def flow_endpoint(op: MonotoneOperator, start: np.ndarray, t,
                  substeps: int) -> np.ndarray:
    """J_lam^m(start), the last state of ``flow_steps`` (``start`` as a float
    array for t = 0); each resolvent value goes straight into the next call,
    or all m are one call of the resolvent's ``power`` when it has one (the
    same bits).  For a batch of starts, ``t`` may give each row its own
    positive time."""
    if not _flow_schedule(op, t, substeps)[1]:
        return np.asarray(start, dtype=float)
    return _flow_kernel(op, substeps)(start, t)


def flow_steps(op: MonotoneOperator, start: np.ndarray, t, substeps: int):
    """Implicit resolvent stepping for the constant-input flow.

    Returns the list of (lam, state) pairs visited by x <- J_lam(x); each
    step certifies (prev - state)/lam in A(state).  Batch form: ``start`` is
    (B, d) and ``t`` one positive time per row (B,); each pair then holds
    the steps (B,) and the states (B, d), and row i is the single-point
    call on row i with time ``t[i]`` (the resolvent's row contract), so that
    m resolvent calls flow B intervals at once.  Only the solution checkers
    ``skorokhod.verify_solution`` and ``pair_inequality_report`` read these
    intermediates; each flows all the intervals of a solution in one call.
    """
    lam, m = _flow_schedule(op, t, substeps)
    out = []
    x = start
    for _ in range(m):
        x = np.asarray(op.resolvent(lam, x), dtype=float)
        out.append((lam, x))
    return out


def flow(op: MonotoneOperator, start, t: float, substeps: int) -> np.ndarray:
    """Constant-input flow from ``start`` over time t (Crandall-Liggett steps).

    First-order accurate in t/substeps against the exact semigroup and
    unconditionally stable; exact for normal-cone operators.  ``start`` must
    lie in the domain closure within ``DEFAULT_DOMAIN_TOL``; t = 0 returns
    ``start`` unchanged.  ``start`` may be a batch (B, d) of starts, flowed
    row by row.
    """
    start = _check_point(op, start)
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if t == 0.0:
        return start.copy()
    dist = float(np.max(op.domain_distance(start), initial=0.0))
    if dist > DEFAULT_DOMAIN_TOL:
        raise DomainViolationError(f"flow start outside the domain closure (distance {dist:.3e})",
                                   point=start, distance=dist)
    return flow_endpoint(op, start, t, substeps).copy()


# ---------------------------------------------------------------------------
# built-in constructors


def _halfspace_projector(a: np.ndarray, b: float, nrm2: float):
    """Nearest-point map onto {x : <a, x> <= b}, given nrm2 = |a|^2."""

    def project(z):
        excess = np.vecdot(z, a) - b
        over = excess > 0.0
        n_over = np.count_nonzero(over)
        if not n_over:
            return z
        moved = z - (excess / nrm2)[..., None] * a
        return moved if n_over == over.size else np.where(over[..., None], moved, z)

    return project


def indicator_halfspace(normal, offset: float) -> MonotoneOperator:
    """Normal cone of the halfspace {x : <normal, x> <= offset}."""
    a = np.atleast_1d(np.asarray(normal, dtype=float))
    b = float(offset)
    nrm2 = float(a @ a)
    if not np.all(np.isfinite(a)) or nrm2 == 0.0:
        raise ValueError("halfspace normal must be finite and nonzero")

    project = _halfspace_projector(a, b, nrm2)
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
        return _clip(z, lo, hi)

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
        nd = row_norm(d)
        over = nd > r
        n_over = np.count_nonzero(over)
        if not n_over:
            return z
        if n_over == over.size:
            return c + d * (r / nd)[..., None]
        # rows inside divide by r, not by a norm that may be zero
        return np.where(over[..., None], c + d * (r / np.maximum(nd, r))[..., None], z)

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
    ``dykstra_tol`` must be finite and positive and ``dykstra_max_iter`` at
    least 1.
    """
    if not (np.isfinite(dykstra_tol) and dykstra_tol > 0):
        raise ValueError(f"dykstra_tol must be finite and positive, got {dykstra_tol}")
    if dykstra_max_iter < 1:
        raise ValueError(f"dykstra_max_iter must be at least 1, got {dykstra_max_iter}")
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
    faces = [_halfspace_projector(a, b, a2) for a, b, a2 in zip(normals, offsets, nrm2)]

    gram_pinv = {}  # per set of faces, the pseudo-inverse of its Gram matrix

    def polish(z, x):
        """Project z exactly onto the faces within ``dykstra_tol`` of the Dykstra
        point x, where the multipliers are >= 0 and the result is feasible (the
        KKT conditions); near a vertex Dykstra stops about 1e-11 short."""
        active = np.matvec(normals, x) - offsets > -dykstra_tol
        groups = {}
        for r, tight in enumerate(active):
            groups.setdefault(tight.tobytes(), []).append(r)
        for key, rows in groups.items():
            tight = active[rows[0]]
            if not tight.any():
                continue
            rows = np.array(rows)
            a = normals[tight]
            if key not in gram_pinv:
                gram_pinv[key] = np.linalg.pinv(a @ a.T)
            mult = np.matvec(gram_pinv[key], np.matvec(a, z[rows]) - offsets[tight])
            near = z[rows] - mult @ a
            ok = ((mult >= 0.0).all(axis=-1)
                  & (np.matvec(normals, near) <= offsets + dykstra_tol).all(axis=-1))
            x[rows[ok]] = near[ok]
        return x

    def project(z):
        # before the face products, which would meet inf x 0: the sweep
        # shift of such a row would never fall below the tolerance
        if np.count_nonzero(np.isfinite(z)) < np.size(z):
            out = np.array(z, dtype=float, ndmin=2)
            bad = out[~np.isfinite(out).all(axis=-1)][0].tolist()
            raise NonConvergenceError(
                f"Dykstra projection cannot stabilize from the non-finite point {bad}",
                last=out.reshape(np.shape(z)), residual=math.nan)
        outside = ~(np.matvec(normals, z) <= offsets).all(axis=-1)
        if not np.count_nonzero(outside):
            return z
        # sweep the rows outside together; each stops on its own sweep shift
        out = np.array(z, dtype=float, ndmin=2)
        rows = live = np.flatnonzero(outside)
        z_out = x = out[live]
        corrections = [np.zeros_like(x)] * len(faces)
        for _ in range(dykstra_max_iter):
            shift = 0.0
            for i, face in enumerate(faces):
                y = x + corrections[i]
                x_new = face(y)
                corrections[i] = y - x_new
                shift = shift + row_norm(x_new - x)
                x = x_new
            done = shift < dykstra_tol
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                out[live] = x
                out[rows] = polish(z_out, out[rows])
                return out.reshape(np.shape(z))
            if n_done:
                out[live[done]] = x[done]
                live, x, shift = live[~done], x[~done], shift[~done]
                corrections = [cor[~done] for cor in corrections]
        out[live] = x
        raise NonConvergenceError(
            f"Dykstra projection did not stabilize in {dykstra_max_iter} sweeps",
            last=out.reshape(np.shape(z)), residual=float(np.max(shift)),
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
    step size ``lam`` and memoised (as its transpose, so that ``z.dot`` serves
    a point and a batch of row points): a path has few distinct steps, and
    one matrix-vector product is far cheaper than a fresh solve.  The memo holds
    at most ``_LINEAR_INVERSE_CACHE`` step sizes and is emptied when full, so
    a stream of fresh steps costs one inversion each; the resolvent's
    ``power`` fetches it once for the m products of a flow.  With one step
    per row of a batch, the inverses missing from the memo are formed by one
    stacked ``np.linalg.inv`` (each with the bits of its own inversion), and
    row i is a vector-matrix product with the same F-ordered matrix as the
    point call, so it equals the single-point call bit for bit.  Forming the
    inverse is safe: <Mx, x> >= 0 gives |(I + lam M)x| >= |x|, hence
    |(I + lam M)^{-1}| <= 1 and the condition number is at most 1 + lam |M|.
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
    inverses_t: dict[float, np.ndarray] = {}

    def remember(lam: float, inv_t: np.ndarray) -> None:
        if len(inverses_t) >= _LINEAR_INVERSE_CACHE:
            inverses_t.clear()
        inverses_t[lam] = inv_t

    def inverse_t(lam: float) -> np.ndarray:
        inv_t = inverses_t.get(lam)
        if inv_t is None:
            inv_t = np.linalg.inv(eye + lam * m).T
            remember(lam, inv_t)
        return inv_t

    def inverses(steps: np.ndarray) -> np.ndarray:
        """The C-ordered inverses (k, d, d) of k distinct steps; those missing
        from the memo are formed by one stacked inversion, which gives each
        the bits of its own ``np.linalg.inv``."""
        invs = np.empty((steps.size, d, d))
        missing = []
        for i, step in enumerate(steps.tolist()):
            inv_t = inverses_t.get(step)
            if inv_t is None:
                missing.append(i)
            else:
                invs[i] = inv_t.T
        if missing:
            invs[missing] = np.linalg.inv(eye + steps[missing][:, None, None] * m)
            for i, step in zip(missing, steps[missing].tolist()):
                remember(step, invs[i].T)
        return invs

    def power(lam, count, z):
        """J_lam^count(z): the inverse is fetched once for all the products."""
        if type(lam) is not float:
            if _per_row(lam):
                # one inverse per distinct step; a vector-matrix product per
                # row makes row i independent of the other rows of the batch,
                # and each matrix, F-ordered as ``inv_t`` is, gives the bits
                # of the point call's ``z.dot(inv_t)``
                steps, which = np.unique(lam, return_inverse=True)
                invs_t = inverses(steps)[which.reshape(-1)].transpose(0, 2, 1)
                for _ in range(count):
                    z = np.vecmat(z, invs_t)
                return z
            lam = float(lam)
        inv_t = inverse_t(lam)
        for _ in range(count):
            # for a point this is inv.dot(z) bit for bit
            z = z.dot(inv_t)
        return z

    def resolvent(lam, z):
        # a float step already memoised is read inline
        inv_t = inverses_t.get(lam) if type(lam) is float else None
        if inv_t is not None:
            return z.dot(inv_t)
        return power(lam, 1, z)

    resolvent.power = power

    return MonotoneOperator(
        dimension=d,
        resolvent=resolvent,
        domain_projection=lambda z: z,
        graph_sample=lambda z: m @ z,
        projection_resolvent=False,
        spec={"kind": "linear", "matrix": m.tolist()},
    )


def _rowwise(f, z) -> np.ndarray:
    """A single-point map applied to a point, or to each row of a batch."""
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    for i in np.ndindex(z.shape[:-1]):  # a point has one index, the empty one
        out[i] = f(z[i])
    return out


def _prox_resolvent(prox):
    """The resolvent of a single-point proximal map; a batch with one step
    per row pairs row i with step i."""

    def resolvent(lam, z):
        if _per_row(lam):
            steps = iter(lam.tolist())
            return _rowwise(lambda row: prox(next(steps), row), z)
        return _rowwise(functools.partial(prox, lam), z)

    return resolvent


def convex_prox(prox: Callable[[float, np.ndarray], np.ndarray], dimension: int,
                domain_projection: Callable[[np.ndarray], np.ndarray] | None = None,
                graph_sample: Callable[[np.ndarray], np.ndarray] | None = None) -> MonotoneOperator:
    """Subdifferential of a convex function given through its proximal map.

    ``prox(lam, z)`` must return argmin_y phi(y) + |y - z|^2 / (2 lam), which
    is exactly the resolvent of the subdifferential.  When the effective
    domain is not all of R^d, pass its nearest-point projection.  Both take
    single points; a batch is mapped row by row, each row with its own step
    when the resolvent is given one step per row.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return MonotoneOperator(
        dimension=dimension,
        resolvent=_prox_resolvent(prox),
        domain_projection=(functools.partial(_rowwise, domain_projection)
                           if domain_projection else (lambda z: z)),
        graph_sample=graph_sample,
        projection_resolvent=False,
        spec=None,
    )
