"""Experiment configuration: INI-style files and builders.

A configuration file has five sections; every key is optional unless noted.

[operator]      kind = halfline | halfspace | box | ball | polyhedron | linear | zero
[projection]    kind = classical | elastic | elastic_iterated, c, tol, max_iter
[coefficient]   kind = zero | constant | diag_linear | bounded_sin | square
[driver]        sigma, drift, jump_rate, jump_law, ... h_* for H, h0
[experiment]    horizon, levels, yosida_levels, trajectories, seed, checkpoints,
                workers, flow_substeps, drift_substeps, reference_refine,
                truncation_radius, out, format

Vectors are comma- or space-separated; matrices separate rows with ';'.
Comment lines start with '#' or ';'; an inline comment starts with ' #' only,
because ';' inside a value separates matrix rows and polyhedron constraints.
Checkpoints are times in (0, horizon]; append 'j' to mark a time where a
driver jump is possible (excluded from continuity-point comparisons).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

from .drivers import DriverSpec, JumpLaw, ProcessSpec
from .errors import ConfigError
from .operators import (
    MonotoneOperator,
    indicator_ball,
    indicator_box,
    indicator_halfspace,
    indicator_polyhedron,
    linear_monotone,
)
from .projections import DEFAULT_ITER_MAX, DEFAULT_ITER_TOL, Projection
from .schemes import Coefficient, constant_coefficient, zero_coefficient

__all__ = [
    "Checkpoint",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "build_operator",
    "build_projection",
    "build_coefficient",
    "build_driver",
]


@dataclass(frozen=True)
class Checkpoint:
    time: float
    continuity_expected: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; section dicts stay picklable."""

    operator: dict
    projection: dict
    coefficient: dict
    driver: dict
    horizon: float = 1.0
    levels: tuple = (8, 32, 128)
    yosida_levels: tuple = (4, 16, 64)
    trajectories: int = 100
    seed: int = 0
    checkpoints: tuple = ()
    workers: int = 1
    flow_substeps: int = 16
    drift_substeps: int = 1
    reference_refine: int = 4
    truncation_radius: float = 2.0
    out_dir: str = "out"
    format: str = "csv"

    def validate(self) -> "ExperimentConfig":
        if not (self.horizon > 0):
            raise ConfigError("experiment.horizon", "must be positive")
        if not self.levels:
            raise ConfigError("experiment.levels", "at least one partition level required")
        lv = list(self.levels)
        if any(int(n) != n or n < 1 for n in lv):
            raise ConfigError("experiment.levels", "levels must be positive integers")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ConfigError("experiment.levels", "levels must be strictly increasing")
        # refinement chains must nest so grids share points bit-exactly
        if any(b % a != 0 for a, b in zip(lv, lv[1:])):
            raise ConfigError("experiment.levels", "each level must divide the next")
        yl = list(self.yosida_levels)
        if any(y < 1 for y in yl):
            raise ConfigError("experiment.yosida_levels", "levels must be >= 1")
        if any(b <= a for a, b in zip(yl, yl[1:])):
            raise ConfigError("experiment.yosida_levels", "levels must be strictly increasing")
        if self.trajectories < 1:
            raise ConfigError("experiment.trajectories", "need at least one trajectory")
        for cp in self.checkpoints:
            if not (0.0 < cp.time <= self.horizon):
                raise ConfigError("experiment.checkpoints",
                                  f"checkpoint {cp.time} outside (0, {self.horizon}]")
        if self.workers < 1:
            raise ConfigError("experiment.workers", "must be >= 1")
        if self.flow_substeps < 1:
            raise ConfigError("experiment.flow_substeps", "must be >= 1")
        if self.drift_substeps < 1:
            raise ConfigError("experiment.drift_substeps", "must be >= 1")
        if self.reference_refine < 2:
            raise ConfigError("experiment.reference_refine", "must be >= 2")
        if not (self.truncation_radius >= 1):
            raise ConfigError("experiment.truncation_radius", "must be >= 1")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError("experiment.format", "must be 'csv' or 'jsonl'")
        # build everything once so geometry errors surface with field names
        op = build_operator(self.operator)
        build_projection(self.projection)
        build_coefficient(self.coefficient, op.dimension)
        build_driver(self.driver, op.dimension)
        return self

    def with_overrides(self, **kw) -> "ExperimentConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


# ---------------------------------------------------------------------------
# value parsing


def _float(text: str, fieldname: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(fieldname, f"not a number: {text!r}") from exc


def _int(text: str, fieldname: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(fieldname, f"not an integer: {text!r}") from exc


def _floats(text: str, fieldname: str) -> list[float]:
    parts = text.replace(",", " ").split()
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(fieldname, f"cannot parse numbers from {text!r}") from exc


def _matrix(text: str, fieldname: str) -> list[list[float]]:
    rows = [r for r in text.split(";") if r.strip()]
    out = [_floats(r, fieldname) for r in rows]
    if not out or any(len(r) != len(out[0]) for r in out):
        raise ConfigError(fieldname, "matrix rows must be nonempty and equal length")
    return out


def _ints(text: str, fieldname: str) -> list[int]:
    vals = _floats(text, fieldname)
    if any(v != int(v) for v in vals):
        raise ConfigError(fieldname, "expected integers")
    return [int(v) for v in vals]


def _checkpoints(text: str, horizon: float) -> tuple:
    out = []
    for token in text.replace(",", " ").split():
        continuity = True
        if token.endswith(("j", "J")):
            continuity = False
            token = token[:-1]
        out.append(Checkpoint(time=_float(token, "experiment.checkpoints"),
                              continuity_expected=continuity))
    if not out:
        out.append(Checkpoint(time=horizon / 2.0))
    return tuple(out)


# ---------------------------------------------------------------------------
# builders: section dict -> object


def build_operator(spec: dict) -> MonotoneOperator:
    kind = spec.get("kind")
    try:
        if kind == "halfline":
            return indicator_halfspace([-1.0], 0.0)
        if kind == "halfspace":
            return indicator_halfspace(spec["normal"], spec["offset"])
        if kind == "box":
            return indicator_box(spec["lo"], spec["hi"])
        if kind == "ball":
            return indicator_ball(spec["center"], spec["radius"])
        if kind == "polyhedron":
            return indicator_polyhedron(list(zip(spec["normals"], spec["offsets"])))
        if kind == "linear":
            return linear_monotone(spec["matrix"])
        if kind == "zero":
            d = int(spec.get("dimension", 1))
            return linear_monotone(np.zeros((d, d)))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"operator.{exc.args[0]}", "missing key") from exc
    except ValueError as exc:
        raise ConfigError("operator", str(exc)) from exc
    raise ConfigError("operator.kind", f"unknown kind {kind!r}")


def build_projection(spec: dict) -> Projection:
    kind = spec.get("kind", "classical")
    try:
        return Projection(
            kind=kind,
            c=float(spec.get("c", 0.0)),
            tol=float(spec.get("tol", DEFAULT_ITER_TOL)),
            max_iter=int(spec.get("max_iter", DEFAULT_ITER_MAX)),
        )
    except ValueError as exc:
        raise ConfigError("projection", str(exc)) from exc


def build_coefficient(spec: dict, dimension: int) -> Coefficient:
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return zero_coefficient(dimension)
    if kind == "constant":
        mat = np.atleast_2d(np.asarray(spec.get("matrix", np.eye(dimension)), dtype=float))
        if mat.shape != (dimension, dimension):
            raise ConfigError("coefficient.matrix",
                              f"expected {dimension}x{dimension}, got {mat.shape}")
        return constant_coefficient(mat)
    if kind == "diag_linear":
        scale = np.atleast_1d(np.asarray(spec.get("scale", 1.0), dtype=float))
        if scale.size == 1:
            scale = np.full(dimension, float(scale[0]))
        if scale.shape != (dimension,):
            raise ConfigError("coefficient.scale", f"expected {dimension} entries")
        return Coefficient(
            f=lambda x: np.diag(scale * x),
            lipschitz=float(np.max(np.abs(scale))),
            spec={"kind": "diag_linear", "scale": scale.tolist()},
        )
    if kind == "bounded_sin":
        base = float(spec.get("base", 0.5))
        amp = float(spec.get("amplitude", 0.25))
        eye = np.eye(dimension)
        return Coefficient(
            f=lambda x: (base + amp * np.sin(float(np.sum(x)))) * eye,
            lipschitz=abs(amp) * np.sqrt(dimension),
            spec={"kind": "bounded_sin", "base": base, "amplitude": amp},
        )
    if kind == "square":
        # locally Lipschitz only; must run under truncation
        return Coefficient(
            f=lambda x: np.diag(x * x),
            lipschitz=None,
            growth=None,
            local_lipschitz=lambda r: 2.0 * r,
            spec={"kind": "square"},
        )
    raise ConfigError("coefficient.kind", f"unknown kind {kind!r}")


def _jump_law(spec: dict, prefix: str, dimension: int) -> JumpLaw | None:
    kind = spec.get(f"{prefix}jump_law", "none")
    if kind in ("none", None):
        return None
    try:
        if kind == "gaussian":
            mean = np.atleast_1d(np.asarray(spec.get(f"{prefix}jump_mean", np.zeros(dimension)), dtype=float))
            cov = spec.get(f"{prefix}jump_cov", np.eye(dimension))
            cov = np.atleast_2d(np.asarray(cov, dtype=float))
            if cov.shape == (1, 1) and dimension > 1:
                cov = float(cov[0, 0]) * np.eye(dimension)
            return JumpLaw.gaussian(mean, cov)
        if kind == "uniform_ball":
            return JumpLaw.uniform_ball(float(spec[f"{prefix}jump_radius"]), dimension)
        if kind == "fixed":
            return JumpLaw.fixed(spec[f"{prefix}jump_value"])
    except KeyError as exc:
        raise ConfigError(f"driver.{exc.args[0]}", "missing key") from exc
    except ValueError as exc:
        raise ConfigError(f"driver.{prefix}jump_law", str(exc)) from exc
    raise ConfigError(f"driver.{prefix}jump_law", f"unknown law {kind!r}")


def _process(spec: dict, prefix: str, dimension: int) -> ProcessSpec:
    sigma = np.atleast_2d(np.asarray(spec.get(f"{prefix}sigma", 0.0), dtype=float))
    if sigma.shape == (1, 1):
        sigma = float(sigma[0, 0]) * np.eye(dimension)
    drift = np.atleast_1d(np.asarray(spec.get(f"{prefix}drift", 0.0), dtype=float))
    if drift.size == 1:
        drift = np.full(dimension, float(drift[0]))
    rate = float(spec.get(f"{prefix}jump_rate", 0.0))
    law = _jump_law(spec, prefix, dimension) if rate > 0 else None
    try:
        return ProcessSpec(dimension, sigma, drift, rate, law)
    except ValueError as exc:
        raise ConfigError(f"driver.{prefix or 'z_'}process", str(exc)) from exc


def build_driver(spec: dict, dimension: int) -> DriverSpec:
    z = _process(spec, "", dimension)
    h = _process(spec, "h_", dimension)
    h0 = np.atleast_1d(np.asarray(spec.get("h0", np.zeros(dimension)), dtype=float))
    if h0.size == 1 and dimension > 1:
        h0 = np.full(dimension, float(h0[0]))
    try:
        return DriverSpec(z=z, h=h, h0=h0)
    except ValueError as exc:
        raise ConfigError("driver.h0", str(exc)) from exc


# ---------------------------------------------------------------------------
# file parsing


def _operator_dict(sec) -> dict:
    kind = sec.get("kind", "halfline")
    out = {"kind": kind}
    if kind == "halfspace":
        out["normal"] = _floats(sec.get("normal", "-1"), "operator.normal")
        out["offset"] = _float(sec.get("offset", "0"), "operator.offset")
    elif kind == "box":
        out["lo"] = _floats(sec.get("lo", "0"), "operator.lo")
        out["hi"] = _floats(sec.get("hi", "1"), "operator.hi")
    elif kind == "ball":
        out["center"] = _floats(sec.get("center", "0"), "operator.center")
        out["radius"] = _float(sec.get("radius", "1"), "operator.radius")
    elif kind == "polyhedron":
        normals, offsets = [], []
        text = sec.get("constraints", "")
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            if ":" not in token:
                raise ConfigError("operator.constraints",
                                  f"expected 'normal : offset', got {token!r}")
            left, right = token.rsplit(":", 1)
            normals.append(_floats(left, "operator.constraints"))
            offsets.append(_float(right, "operator.constraints"))
        out["normals"] = normals
        out["offsets"] = offsets
    elif kind == "linear":
        out["matrix"] = _matrix(sec.get("matrix", "1"), "operator.matrix")
    elif kind == "zero":
        out["dimension"] = _int(sec.get("dimension", "1"), "operator.dimension")
    elif kind != "halfline":
        raise ConfigError("operator.kind", f"unknown kind {kind!r}")
    return out


def _projection_dict(sec) -> dict:
    out = {"kind": sec.get("kind", "classical")}
    for key in ("c", "tol"):
        if key in sec:
            out[key] = _float(sec[key], f"projection.{key}")
    if "max_iter" in sec:
        out["max_iter"] = _int(sec["max_iter"], "projection.max_iter")
    return out


def _coefficient_dict(sec) -> dict:
    kind = sec.get("kind", "zero")
    out = {"kind": kind}
    if kind == "constant" and "matrix" in sec:
        out["matrix"] = _matrix(sec["matrix"], "coefficient.matrix")
    if kind == "diag_linear" and "scale" in sec:
        out["scale"] = _floats(sec["scale"], "coefficient.scale")
    if kind == "bounded_sin":
        for key in ("base", "amplitude"):
            if key in sec:
                out[key] = _float(sec[key], f"coefficient.{key}")
    return out


def _driver_dict(sec) -> dict:
    out = {}
    for prefix in ("", "h_"):
        if f"{prefix}sigma" in sec:
            out[f"{prefix}sigma"] = _matrix(sec[f"{prefix}sigma"], f"driver.{prefix}sigma")
        if f"{prefix}drift" in sec:
            out[f"{prefix}drift"] = _floats(sec[f"{prefix}drift"], f"driver.{prefix}drift")
        if f"{prefix}jump_rate" in sec:
            out[f"{prefix}jump_rate"] = _float(sec[f"{prefix}jump_rate"],
                                                f"driver.{prefix}jump_rate")
        if f"{prefix}jump_law" in sec:
            out[f"{prefix}jump_law"] = sec[f"{prefix}jump_law"]
        if f"{prefix}jump_mean" in sec:
            out[f"{prefix}jump_mean"] = _floats(sec[f"{prefix}jump_mean"], f"driver.{prefix}jump_mean")
        if f"{prefix}jump_cov" in sec:
            out[f"{prefix}jump_cov"] = _matrix(sec[f"{prefix}jump_cov"], f"driver.{prefix}jump_cov")
        if f"{prefix}jump_radius" in sec:
            out[f"{prefix}jump_radius"] = _float(sec[f"{prefix}jump_radius"],
                                                  f"driver.{prefix}jump_radius")
        if f"{prefix}jump_value" in sec:
            out[f"{prefix}jump_value"] = _floats(sec[f"{prefix}jump_value"], f"driver.{prefix}jump_value")
    if "h0" in sec:
        out["h0"] = _floats(sec["h0"], "driver.h0")
    return out


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("file", f"cannot parse configuration: {exc}") from exc

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    exp = section("experiment")
    horizon = _float(exp.get("horizon", "1"), "experiment.horizon")

    def exp_int(key, default):
        return _int(exp.get(key, str(default)), f"experiment.{key}")

    cfg = ExperimentConfig(
        operator=_operator_dict(section("operator")),
        projection=_projection_dict(section("projection")),
        coefficient=_coefficient_dict(section("coefficient")),
        driver=_driver_dict(section("driver")),
        horizon=horizon,
        levels=tuple(_ints(exp.get("levels", "8 32 128"), "experiment.levels")),
        yosida_levels=tuple(_ints(exp.get("yosida_levels", "4 16 64"),
                                  "experiment.yosida_levels")),
        trajectories=exp_int("trajectories", 100),
        seed=exp_int("seed", 0),
        checkpoints=_checkpoints(exp.get("checkpoints", ""), horizon),
        workers=exp_int("workers", 1),
        flow_substeps=exp_int("flow_substeps", 16),
        drift_substeps=exp_int("drift_substeps", 1),
        reference_refine=exp_int("reference_refine", 4),
        truncation_radius=_float(exp.get("truncation_radius", "2"),
                                 "experiment.truncation_radius"),
        out_dir=exp.get("out", "out"),
        format=exp.get("format", "csv"),
    )
    return cfg.validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("file", f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)
