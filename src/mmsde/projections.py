"""Generalized projections onto the domain closure.

A generalized projection fixes the domain closure pointwise and is
1-Lipschitz.  Three kinds are provided: the classical nearest-point map, the
elastic map p - c (z - p) that rebounds a fraction c of the overshoot off the
boundary, and the iterated elastic limit.  A single elastic step may exit the
domain (that is why the iteration exists), so range containment is only
guaranteed for the classical and iterated kinds.  Every kind maps a point
(d,) or a batch (B, d) row by row, under ``MonotoneOperator``'s row contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .operators import MonotoneOperator, as_points, row_norm

__all__ = [
    "Projection",
    "project_classical",
    "project_elastic",
    "project_elastic_iterated",
    "DEFAULT_ITER_TOL",
    "DEFAULT_ITER_MAX",
]

DEFAULT_ITER_TOL = 1e-10
DEFAULT_ITER_MAX = 100_000

_KINDS = ("classical", "elastic", "elastic_iterated")


def project_classical(op: MonotoneOperator, z) -> np.ndarray:
    """Nearest point of the domain closure (exact identity inside)."""
    return np.asarray(op.domain_projection(as_points(z)), dtype=float)


def _elasticity(c) -> float:
    c = float(c)
    if not (0.0 <= c <= 1.0):
        raise ValueError(f"elasticity must lie in [0, 1], got {c}")
    return c


def project_elastic(op: MonotoneOperator, c: float, z) -> np.ndarray:
    """p - c (z - p) with p the classical projection; c in [0, 1].

    c = 0 collapses to the classical projection, c = 1 is the mirror
    reflection through the nearest boundary point.
    """
    c = _elasticity(c)
    z = as_points(z)
    p = np.asarray(op.domain_projection(z), dtype=float)
    return p if c == 0.0 else p - c * (z - p)


def _iteration_budget(tol, max_iter: int) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def project_elastic_iterated(op: MonotoneOperator, c: float, z,
                             tol: float = DEFAULT_ITER_TOL,
                             max_iter: int = DEFAULT_ITER_MAX) -> np.ndarray:
    """Limit of repeated elastic projections.

    Iterates w <- elastic(w) until the iterate lies in the domain closure
    within ``tol`` or moves by less than ``tol``; either condition certifies
    a fixed point of the iteration to tolerance.  Once an iterate lands
    inside, further elastic steps fix it, so the stopped value equals the
    true limit there, and a batch that the domain projection fixes returns
    at once.  Each row of a batch freezes at its own stopping iterate; the
    budget error carries the batch's last iterate and the largest domain
    distance among the rows still moving; a non-finite row raises it before
    the first projection.  ``tol`` must be finite and positive, ``max_iter``
    at least 1.
    """
    _iteration_budget(tol, max_iter)
    c = _elasticity(c)
    w = as_points(z)
    # before any arithmetic on it, which would meet inf - inf: such a row never stops
    if np.count_nonzero(np.isfinite(w)) < w.size:
        bad = (w[~np.isfinite(w).all(axis=-1)][0] if w.ndim == 2 else w).tolist()
        raise NonConvergenceError("iterated elastic projection cannot stabilize from the "
                                  f"non-finite point {bad}", last=w, residual=math.nan)
    p = np.asarray(op.domain_projection(w), dtype=float)
    gap = w - p
    if not np.count_nonzero(gap):  # p fixes every row, and p - c gap is p bit for bit
        return p
    out = rows = None  # the frozen rows, once a batch has any
    for step in range(max_iter):
        nxt = p if c == 0.0 else p - c * gap
        p = op.domain_projection(nxt)
        # the domain test first: a point inside needs no step test
        stop = row_norm(nxt - p) <= tol
        stopped, live = np.count_nonzero(stop), stop.size
        if stopped < live:
            stop = stop | (row_norm(nxt - w) < tol)
            stopped = np.count_nonzero(stop)
        if stopped == live:
            if out is None:
                return nxt
            out[rows] = nxt
            return out
        if stopped:  # only a batch has some rows stopped and some not
            if out is None:
                out, rows = np.empty_like(w), np.arange(len(w))
            out[rows[stop]] = nxt[stop]
            rows, nxt, p = rows[~stop], nxt[~stop], p[~stop]
        w, gap = nxt, nxt - p
    residual = float(np.max(row_norm(gap)))
    if out is not None:
        out[rows] = w
        w = out
    raise NonConvergenceError(
        f"iterated elastic projection did not stabilize in {max_iter} steps "
        f"(domain distance {residual:.3e})",
        last=w, residual=residual,
    )


@dataclass(frozen=True)
class Projection:
    """Dispatchable projection specification (kind + parameters).

    ``proj(op, z)`` maps a point (d,) or a batch (B, d); row i of a batch
    comes out bit for bit as the single point would.  Instances are immutable
    and call through to the pure projection functions, so they are safe to
    share between threads.
    """

    kind: str = "classical"
    c: float = 0.0
    tol: float = DEFAULT_ITER_TOL
    max_iter: int = DEFAULT_ITER_MAX

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown projection kind {self.kind!r}; choose from {_KINDS}")
        if self.kind != "classical" and not (0.0 <= self.c <= 1.0):
            raise ValueError(f"elasticity must lie in [0, 1], got {self.c}")
        if self.kind == "elastic_iterated":
            _iteration_budget(self.tol, self.max_iter)

    def __call__(self, op: MonotoneOperator, z) -> np.ndarray:
        if self.kind == "classical":
            return project_classical(op, z)
        if self.kind == "elastic":
            return project_elastic(op, self.c, z)
        return project_elastic_iterated(op, self.c, z, self.tol, self.max_iter)

    @property
    def spec(self) -> dict:
        out = {"kind": self.kind}
        if self.kind != "classical":
            out["c"] = self.c
        if self.kind == "elastic_iterated":
            out.update(tol=self.tol, max_iter=self.max_iter)
        return out
