"""Experiment configuration: INI-style files and builders.

A configuration file has the sections [operator], [projection],
[coefficient], [driver] and [experiment].  One schema table per section
below lists its kinds, keys, parsers and defaults; parsing and building both
read it.  Every key is optional except the radius or value of a uniform_ball
or fixed jump law.  An unknown section, and a key that its table does not
list for the chosen kind (or jump law), are rejected with a ConfigError
naming them.  The driver has keys for Z and the same keys prefixed 'h_' for
H; its jump_law picks the law whose jump_* keys apply.

Vectors are comma- or space-separated; matrices separate rows with ';'.
Comment lines start with '#' or ';'; an inline comment starts with ' #' only,
because ';' inside a value separates matrix rows and polyhedron constraints.
Checkpoints are times in (0, horizon]; append 'j' to mark a time where a
driver jump is possible (excluded from continuity-point comparisons).

``load_config`` applies a command's overrides before its one ``validate``,
which builds every section; a study builds them once more, in its
``harness._Context``.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .drivers import _MAX_HORIZON, DriverSpec, JumpLaw, ProcessSpec
from .errors import ConfigError
from .operators import (
    MonotoneOperator,
    _flow_schedule,
    indicator_ball,
    indicator_box,
    indicator_halfspace,
    indicator_polyhedron,
    linear_monotone,
)
from .projections import Projection
from .schemes import (
    Coefficient,
    bounded_sin_coefficient,
    constant_coefficient,
    diag_linear_coefficient,
    square_coefficient,
    zero_coefficient,
)

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


# Bound on a trajectory's expected jump count, jump_rate x horizon, per interval
# of the grid it is simulated on (the reference grid of a study, the finest level
# of ``simulate``): every jump time joins the grids and adds to each run's cost.
# It also keeps the mean below numpy's Poisson limit (about 9.2e18).
_JUMPS_PER_INTERVAL = 16


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
    out_dir: str = "out"
    format: str = "csv"

    def validate(self) -> "ExperimentConfig":
        """Check every field and build every section, naming a fault by its field.
        A config that passed returns at once: ``replace`` makes a new, unchecked
        one, and no caller changes a section dict in place."""
        if "_validated" in self.__dict__:
            return self
        if not (0 < self.horizon <= _MAX_HORIZON):
            raise ConfigError("experiment.horizon",
                              f"must be positive and at most 2**512 = {_MAX_HORIZON}")
        if not self.levels:
            raise ConfigError("experiment.levels", "at least one partition level required")
        if any(int(n) != n or n < 1 for n in self.levels):
            raise ConfigError("experiment.levels", "levels must be positive integers")
        pairs = list(zip(self.levels, self.levels[1:]))
        if any(b <= a for a, b in pairs):
            raise ConfigError("experiment.levels", "levels must be strictly increasing")
        # refinement chains must nest so grids share points bit-exactly
        if any(b % a != 0 for a, b in pairs):
            raise ConfigError("experiment.levels", "each level must divide the next")
        if not all(1 <= y < math.inf for y in self.yosida_levels):
            raise ConfigError("experiment.yosida_levels", "levels must be finite and >= 1")
        if any(b <= a for a, b in zip(self.yosida_levels, self.yosida_levels[1:])):
            raise ConfigError("experiment.yosida_levels", "levels must be strictly increasing")
        if self.trajectories < 1:
            raise ConfigError("experiment.trajectories", "need at least one trajectory")
        for cp in self.checkpoints:
            if not (0.0 < cp.time <= self.horizon):
                raise ConfigError("experiment.checkpoints",
                                  f"checkpoint {cp.time} outside (0, {self.horizon}]")
        for name, least in (("workers", 1), ("flow_substeps", 1), ("drift_substeps", 1),
                            ("reference_refine", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"experiment.{name}", f"must be >= {least}")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError("experiment.format", "must be 'csv' or 'jsonl'")
        # build everything once so geometry errors surface with field names
        op = build_operator(self.operator)
        # the reference grid's step, as the flow takes it; as an array, so
        # that a step which underflows to 0 is refused too
        with _naming("experiment.horizon"):
            _flow_schedule(op, np.array([self.horizon / (self.levels[-1] * self.reference_refine)]),
                           self.flow_substeps)
        build_projection(self.projection)
        build_coefficient(self.coefficient, op.dimension)
        self.check_jumps(build_driver(self.driver, op.dimension),
                         self.levels[-1] * self.reference_refine)
        object.__setattr__(self, "_validated", True)  # not a field: eq, repr and replace skip it
        return self

    def check_jumps(self, driver, intervals: int) -> None:
        """Refuse a process whose expected jump count, rate x horizon, exceeds
        ``_JUMPS_PER_INTERVAL`` per interval of the grid it is simulated on."""
        for prefix, proc in zip(_PREFIXES, (driver.z, driver.h)):
            if proc.jump_rate * self.horizon > _JUMPS_PER_INTERVAL * intervals:
                raise ConfigError(f"driver.{prefix}jump_rate", f"rate x horizon exceeds "
                                  f"{_JUMPS_PER_INTERVAL} x the {intervals} grid intervals")

    def with_overrides(self, **kw) -> "ExperimentConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


# ---------------------------------------------------------------------------
# value parsers: (INI text, field name) -> value


def _text(text: str, fieldname: str) -> str:
    return text


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


def _ints(text: str, fieldname: str) -> tuple:
    vals = _floats(text, fieldname)
    if not all(math.isfinite(v) and v == int(v) for v in vals):
        raise ConfigError(fieldname, "expected integers")
    return tuple(int(v) for v in vals)


def _checkpoints(text: str, fieldname: str) -> tuple:
    out = []
    for token in text.replace(",", " ").split():
        continuity = not token.endswith(("j", "J"))
        out.append(Checkpoint(_float(token if continuity else token[:-1], fieldname),
                              continuity))
    return tuple(out)


def _constraints(text: str, fieldname: str) -> dict:
    normals, offsets = [], []
    for token in filter(None, (t.strip() for t in text.split(";"))):
        if ":" not in token:
            raise ConfigError(fieldname, f"expected 'normal : offset', got {token!r}")
        left, right = token.rsplit(":", 1)
        normals.append(_floats(left, fieldname))
        offsets.append(_float(right, fieldname))
    return {"normals": normals, "offsets": offsets}


# ---------------------------------------------------------------------------
# schema tables
#
# A kinded table maps kind -> (constructor, {key: (parser, default)}); its
# first kind is the section's default.  A default is the INI text parsed when
# the key is absent, None to leave the key to the constructor's own default,
# or _REQUIRED.  A parser that returns a dict stores each of its entries (the
# polyhedron's constraints become normals and offsets).  The operator dict
# holds every key of its kind, defaults filled in; the other sections hold
# only the keys the file sets.

_REQUIRED = object()


def _vector(value, dimension: int) -> np.ndarray:
    """A vector; one entry is repeated ``dimension`` times."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return np.full(dimension, float(v[0])) if v.size == 1 else v


def _scaled_eye(value, dimension: int) -> np.ndarray:
    """A matrix; a 1x1 one is that multiple of the identity."""
    m = np.atleast_2d(np.asarray(value, dtype=float))
    return float(m[0, 0]) * np.eye(dimension) if m.shape == (1, 1) else m


def _constant(dimension: int, matrix=None) -> Coefficient:
    mat = np.atleast_2d(np.asarray(np.eye(dimension) if matrix is None else matrix, dtype=float))
    if mat.shape != (dimension, dimension):
        raise ConfigError("coefficient.matrix",
                          f"expected {dimension}x{dimension}, got {mat.shape}")
    return constant_coefficient(mat)


def _diag_linear(dimension: int, scale) -> Coefficient:
    scale = _vector(scale, dimension)
    if scale.shape != (dimension,):
        raise ConfigError("coefficient.scale", f"expected {dimension} entries")
    return diag_linear_coefficient(scale)


def _gaussian(dimension: int, jump_cov, jump_mean=None) -> JumpLaw:
    mean = np.zeros(dimension) if jump_mean is None else jump_mean
    return JumpLaw.gaussian(mean, _scaled_eye(jump_cov, dimension))


_OPERATORS = {
    "halfline": (lambda: indicator_halfspace([-1.0], 0.0), {}),
    "halfspace": (indicator_halfspace, {"normal": (_floats, "-1"), "offset": (_float, "0")}),
    "box": (indicator_box, {"lo": (_floats, "0"), "hi": (_floats, "1")}),
    "ball": (indicator_ball, {"center": (_floats, "0"), "radius": (_float, "1")}),
    "polyhedron": (lambda normals, offsets: indicator_polyhedron(list(zip(normals, offsets))),
                   {"constraints": (_constraints, "")}),
    "linear": (linear_monotone, {"matrix": (_matrix, "1")}),
    "zero": (lambda dimension: linear_monotone(np.zeros((int(dimension),) * 2)),
             {"dimension": (_int, "1")}),
}

# Projection takes the kind, checks it and holds every default
_PROJECTIONS = {
    "classical": (Projection, {}),
    "elastic": (Projection, {"c": (_float, None)}),
    "elastic_iterated": (Projection, {"c": (_float, None), "tol": (_float, None),
                                      "max_iter": (_int, None)}),
}

_COEFFICIENTS = {
    "zero": (zero_coefficient, {}),
    "constant": (_constant, {"matrix": (_matrix, None)}),
    "diag_linear": (_diag_linear, {"scale": (_floats, "1")}),
    "bounded_sin": (bounded_sin_coefficient, {"base": (_float, "0.5"),
                                              "amplitude": (_float, "0.25")}),
    "square": (lambda dimension: square_coefficient(), {}),
}

# [driver]: the keys of Z, and of H prefixed 'h_'; jump_law picks a law
_PREFIXES = ("", "h_")
_PROCESS = {"sigma": (_matrix, "0"), "drift": (_floats, "0"), "jump_rate": (_float, "0"),
            "jump_law": (_text, None)}
_JUMP_LAWS = {
    "none": (lambda dimension: None, {}),
    "gaussian": (_gaussian, {"jump_mean": (_floats, None), "jump_cov": (_matrix, "1")}),
    "uniform_ball": (lambda dimension, jump_radius: JumpLaw.uniform_ball(jump_radius, dimension),
                     {"jump_radius": (_float, _REQUIRED)}),
    "fixed": (lambda dimension, jump_value: JumpLaw.fixed(jump_value),
              {"jump_value": (_floats, _REQUIRED)}),
}
_H0 = {"h0": (_floats, "0")}

# defaults are the ExperimentConfig fields; 'out' sets out_dir
_EXPERIMENT = {key: (parser, None) for key, parser in (
    ("horizon", _float), ("levels", _ints), ("yosida_levels", _ints), ("trajectories", _int),
    ("seed", _int), ("checkpoints", _checkpoints), ("workers", _int), ("flow_substeps", _int),
    ("drift_substeps", _int), ("reference_refine", _int), ("out", _text), ("format", _text))}


def _stored(name: str, value) -> dict:
    return value if isinstance(value, dict) else {name: value}


def _keys(table: dict, kind) -> dict:
    """The keys ``kind`` reads; all keys of the table if the builder must name the kind."""
    if kind in table:
        return table[kind][1]
    return {k: v for _, keys in table.values() for k, v in keys.items()}


def _entry(field: str, table: dict, kind, noun: str = "kind") -> tuple:
    if kind not in table:
        raise ConfigError(field, f"unknown {noun} {kind!r}")
    return table[kind]


def _arguments(section: str, keys: dict, given: dict, prefix: str = "") -> dict:
    """Constructor keywords: the stored values ``given`` over the defaults of ``keys``."""
    kw = dict(given)
    for key, (parser, default) in keys.items():
        if key in kw or default is None:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{prefix}{key}", "missing key")
        for name, value in _stored(key, parser(default, f"{section}.{prefix}{key}")).items():
            kw.setdefault(name, value)
    return kw


@contextmanager
def _naming(field: str):
    """Re-raise a constructor's ValueError or TypeError as a ConfigError on ``field``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, str(exc)) from exc


# ---------------------------------------------------------------------------
# builders: section dict -> object


def _build(section: str, table: dict, spec: dict, *args):
    ctor, keys = _entry(f"{section}.kind", table, spec.get("kind", next(iter(table))))
    given = {k: v for k, v in spec.items() if k != "kind"}
    with _naming(section):
        return ctor(*args, **_arguments(section, keys, given))


def build_operator(spec: dict) -> MonotoneOperator:
    return _build("operator", _OPERATORS, spec)


def build_projection(spec: dict) -> Projection:
    kind = spec.get("kind", next(iter(_PROJECTIONS)))
    # Projection itself rejects an unknown kind
    ctor, keys = _PROJECTIONS.get(kind, (Projection, {}))
    given = {k: v for k, v in spec.items() if k != "kind"}
    with _naming("projection"):
        return ctor(kind, **_arguments("projection", keys, given))


def build_coefficient(spec: dict, dimension: int) -> Coefficient:
    return _build("coefficient", _COEFFICIENTS, spec, dimension)


def _given(spec: dict, keys: dict, prefix: str = "") -> dict:
    return {k: spec[prefix + k] for k in keys if prefix + k in spec}


def _process(spec: dict, prefix: str, dimension: int) -> ProcessSpec:
    kw = _arguments("driver", _PROCESS, _given(spec, _PROCESS, prefix), prefix)
    rate, law, field = float(kw["jump_rate"]), None, f"driver.{prefix}jump_law"
    if rate > 0:
        ctor, keys = _entry(field, _JUMP_LAWS, kw.get("jump_law", next(iter(_JUMP_LAWS))), "law")
        with _naming(field):
            law = ctor(dimension, **_arguments("driver", keys, _given(spec, keys, prefix), prefix))
    with _naming(f"driver.{prefix or 'z_'}process"):
        return ProcessSpec(dimension, _scaled_eye(kw["sigma"], dimension),
                           _vector(kw["drift"], dimension), rate, law)


def build_driver(spec: dict, dimension: int) -> DriverSpec:
    z, h = (_process(spec, prefix, dimension) for prefix in _PREFIXES)
    h0 = _vector(_arguments("driver", _H0, _given(spec, _H0))["h0"], dimension)
    with _naming("driver.h0"):
        driver = DriverSpec(z=z, h=h, h0=h0)
    # checked last, so that every other fault of the section is named first
    for prefix, law in zip(_PREFIXES, (z.jump_law, h.jump_law)):
        if law is not None and law.dimension != dimension:
            raise ConfigError(f"driver.{prefix}jump_law", f"jump sizes have dimension "
                              f"{law.dimension}, the operator has dimension {dimension}")
    return driver


# ---------------------------------------------------------------------------
# file parsing

_SECTIONS = ("operator", "projection", "coefficient", "driver", "experiment")


def _read(sec, section: str, keys: dict) -> dict:
    """Parse the keys ``sec`` sets in table order, after rejecting any not in ``keys``."""
    for name in sec:
        if name not in keys:
            raise ConfigError(f"{section}.{name}", "unknown key")
    out = {}
    for name, (parser, _) in keys.items():
        if name in sec:
            out.update(_stored(name, parser(sec[name], f"{section}.{name}")))
    return out


def _read_kind(sec, section: str, table: dict, fill: bool = False) -> dict:
    """A kinded section; ``fill`` requires a known kind and stores all its keys."""
    kind = sec.get("kind", next(iter(table)))
    keys = _entry(f"{section}.kind", table, kind)[1] if fill else _keys(table, kind)
    out = {"kind": kind, **_read(sec, section, {"kind": (_text, None), **keys})}
    return _arguments(section, keys, out) if fill else out


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """The validated config of ``text``, with ``overrides`` (``with_overrides``) applied first."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("file", f"cannot parse configuration: {exc}") from exc
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(name, "unknown section")
    sec = {name: parser[name] if parser.has_section(name) else {} for name in _SECTIONS}

    operator = _read_kind(sec["operator"], "operator", _OPERATORS, fill=True)
    projection = _read_kind(sec["projection"], "projection", _PROJECTIONS)
    coefficient = _read_kind(sec["coefficient"], "coefficient", _COEFFICIENTS)
    keys = {}
    for prefix in _PREFIXES:
        law = sec["driver"].get(prefix + "jump_law", next(iter(_JUMP_LAWS)))
        keys.update({prefix + k: v for k, v in {**_PROCESS, **_keys(_JUMP_LAWS, law)}.items()})
    driver = _read(sec["driver"], "driver", {**keys, **_H0})
    exp = _read(sec["experiment"], "experiment", _EXPERIMENT)
    if "out" in exp:
        exp["out_dir"] = exp.pop("out")
    cfg = ExperimentConfig(operator, projection, coefficient, driver, **exp)
    if not cfg.checkpoints:
        cfg = replace(cfg, checkpoints=(Checkpoint(cfg.horizon / 2.0),))
    return cfg.with_overrides(**overrides).validate()


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("file", f"cannot read {path}: {exc}") from exc
    return parse_config_text(text, **overrides)
