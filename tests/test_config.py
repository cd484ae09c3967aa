import numpy as np
import pytest

import mmsde.drivers as drivers
from mmsde.cli import EXIT_CONFIG, main
from mmsde.config import (
    build_coefficient,
    build_operator,
    build_projection,
    parse_config_text,
)
from mmsde.errors import ConfigError
from mmsde.operators import DEFAULT_DOMAIN_TOL


def test_matrix_rows_separated_by_spaced_semicolon():
    cfg = parse_config_text("""
; a full-line comment may start with ';'
[operator]
kind = linear
matrix = 2 0.5 ; -0.5 1  # inline comments start with '#'
""")
    assert cfg.operator["matrix"] == [[2.0, 0.5], [-0.5, 1.0]]
    assert build_operator(cfg.operator).dimension == 2


def test_polyhedron_keeps_every_spaced_constraint():
    cfg = parse_config_text("""
[operator]
kind = polyhedron
constraints = -1 0 : 0 ; 0 -1 : 0 ; 1 1 : 1
""")
    assert cfg.operator["normals"] == [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
    assert cfg.operator["offsets"] == [0.0, 0.0, 1.0]
    op = build_operator(cfg.operator)
    assert op.domain_distance(np.array([0.25, 0.25])) <= DEFAULT_DOMAIN_TOL
    # cut off by the third constraint
    assert op.domain_distance(np.array([0.75, 0.75])) > DEFAULT_DOMAIN_TOL


# (section text, field named by the error); each config is otherwise valid
MALFORMED = [
    ("[operator]\nkind = ball\ncenter = 0 0\nradius = one\n", "operator.radius"),
    ("[operator]\nkind = halfspace\nnormal = -1\noffset = zero\n", "operator.offset"),
    ("[operator]\nkind = polyhedron\nconstraints = -1 0 : zero\n", "operator.constraints"),
    ("[operator]\nkind = zero\ndimension = two\n", "operator.dimension"),
    ("[projection]\nkind = elastic\nc = half\n", "projection.c"),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\ntol = small\n", "projection.tol"),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\nmax_iter = 1.5\n", "projection.max_iter"),
    # an iteration budget the projection cannot run on: a constructor error
    ("[projection]\nkind = elastic_iterated\nc = 0.5\ntol = -1\n", "projection",
     "projection-tol-negative"),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\ntol = nan\n", "projection",
     "projection-tol-nan"),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\nmax_iter = 0\n", "projection",
     "projection-max-iter-0"),
    ("[coefficient]\nkind = bounded_sin\nbase = one\n", "coefficient.base"),
    ("[coefficient]\nkind = bounded_sin\namplitude = x\n", "coefficient.amplitude"),
    ("[driver]\njump_rate = often\n", "driver.jump_rate"),
    ("[driver]\nh_jump_rate = 1\nh_jump_law = uniform_ball\nh_jump_radius = r\n",
     "driver.h_jump_radius"),
    ("[experiment]\nhorizon = long\n", "experiment.horizon"),
    # a horizon the grids cannot be laid on, or whose reference step the flow
    # cannot take
    ("[experiment]\nhorizon = inf\n", "experiment.horizon", "experiment.horizon-inf"),
    ("[experiment]\nhorizon = 1e-20\n", "experiment.horizon", "experiment.horizon-tiny"),
    # above 2**512, where a bridge bracket's (s - a)(b - s) could overflow
    ("[experiment]\nhorizon = 1e308\n", "experiment.horizon", "experiment.horizon-huge"),
    ("[experiment]\nhorizon = 1e160\n", "experiment.horizon", "experiment.horizon-above-2-512"),
    ("[experiment]\ntrajectories = many\n", "experiment.trajectories"),
    ("[experiment]\ncheckpoints = 0.5 late\n", "experiment.checkpoints"),
    # a non-finite level is no integer
    ("[experiment]\nlevels = 8 inf\n", "experiment.levels"),
    ("[experiment]\nyosida_levels = 4 nan\n", "experiment.yosida_levels"),
    ("[experiment]\ntruncation_radius = wide\n", "experiment.truncation_radius"),
    ("[experiment]\ntruncation_radius = 0.5\n", "experiment.truncation_radius"),
    ("[driver]\nh0 = -1\n", "driver.h0"),
    ("[operator]\nkind = box\nlo = 0 0\nhi = 1 1\n[driver]\nh0 = 0.5 2\n", "driver.h0"),
    # a jump law whose dimension is not the operator's
    ("[driver]\njump_rate = 1\njump_law = fixed\njump_value = 1 2\n", "driver.jump_law"),
    ("[driver]\njump_rate = 1\njump_law = gaussian\njump_mean = 0 0\njump_cov = 1 0; 0 1\n",
     "driver.jump_law"),
    ("[driver]\nh_jump_rate = 1\nh_jump_law = fixed\nh_jump_value = 1 2\n", "driver.h_jump_law"),
    # misspelt keys, keys the chosen kind or jump law does not read, unknown sections
    ("[driver]\njump_rat = 2\n", "driver.jump_rat"),
    ("[driver]\njump_rate = 1\njump_law = fixed\njump_value = 1\njump_mean = 0\n",
     "driver.jump_mean"),
    ("[driver]\nh_jump_cov = 1\n", "driver.h_jump_cov"),
    ("[operator]\nkind = box\ncenter = 0\n", "operator.center"),
    ("[projection]\nkind = classical\nmax_iters = 5\n", "projection.max_iters"),
    ("[coefficient]\nkind = zero\nmatrix = 1\n", "coefficient.matrix"),
    ("[experiment]\nlevel = 8\n", "experiment.level"),
    ("[experiments]\nseed = 1\n", "experiments"),
    # a key that changed no output
    ("[experiment]\ntruncation_radius = 3\n", "experiment.truncation_radius"),
    # a jump rate numpy's Poisson sampler cannot take
    ("[driver]\njump_rate = nan\n", "driver.z_process"),
    ("[driver]\njump_rate = inf\n", "driver.z_process"),
    ("[driver]\nh_jump_rate = inf\n", "driver.h_process"),
    # jump_rate x horizon above the jump-count bound, here even above the
    # largest mean numpy's Poisson sampler takes; a third entry is the test id
    # where the field alone would repeat one
    ("[driver]\njump_rate = 1e20\njump_law = fixed\njump_value = 1\n", "driver.jump_rate",
     "driver.jump_rate-poisson-max"),
    ("[driver]\nh_jump_rate = 1e20\nh_jump_law = gaussian\n", "driver.h_jump_rate"),
    ("[driver]\njump_rate = 5e18\njump_law = fixed\njump_value = 1\n[experiment]\nhorizon = 2\n",
     "driver.jump_rate", "driver.jump_rate-times-horizon"),
]


@pytest.mark.parametrize("text, field", [row[:2] for row in MALFORMED],
                         ids=[row[-1] for row in MALFORMED])
def test_malformed_config_names_its_field_and_exits_2(tmp_path, capsys, text, field):
    config = tmp_path / "bad.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
    assert not out.exists()


JUMPY = """
[driver]
{prefix}jump_rate = {rate}
{prefix}jump_law = gaussian

[experiment]
levels = 4 8
reference_refine = 2
horizon = 2
"""


@pytest.mark.parametrize("prefix", ["", "h_"])
def test_jump_count_is_bounded_by_the_reference_grid(tmp_path, capsys, monkeypatch, prefix):
    # 16 intervals on the reference grid: at most 16 x 16 expected jumps over [0, 2]
    assert parse_config_text(JUMPY.format(prefix=prefix, rate=128)).validate()
    with pytest.raises(ConfigError, match=f"driver.{prefix}jump_rate"):
        parse_config_text(JUMPY.format(prefix=prefix, rate=128.5)).validate()

    # a rate far below numpy's Poisson limit is refused before any jump time is drawn
    def never(*args):
        raise AssertionError("jump times sampled")

    monkeypatch.setattr(drivers, "_sample_jumps", never)
    config = tmp_path / "jumpy.ini"
    config.write_text(JUMPY.format(prefix=prefix, rate=1e12), encoding="utf-8")
    assert main(["converge", "--config", str(config), "--out", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: driver.{prefix}jump_rate: ")


# (INI text, section, the literal section dict); generated before the config
# layer was rewritten as schema tables, so they pin its exact output.  The
# operator dict holds every key of its kind with the default filled in; the
# other sections hold only the keys the file sets.
PINS = [
    ("", "operator", {"kind": "halfline"}),
    ("[operator]\nkind = halfline\n", "operator", {"kind": "halfline"}),
    ("[operator]\nkind = halfspace\n", "operator",
     {"kind": "halfspace", "normal": [-1.0], "offset": 0.0}),
    ("[operator]\nkind = halfspace\nnormal = 1 -1\noffset = 0.5\n", "operator",
     {"kind": "halfspace", "normal": [1.0, -1.0], "offset": 0.5}),
    ("[operator]\nkind = box\n", "operator", {"kind": "box", "lo": [0.0], "hi": [1.0]}),
    ("[operator]\nkind = box\nlo = 0 -1\nhi = 1 2\n", "operator",
     {"kind": "box", "lo": [0.0, -1.0], "hi": [1.0, 2.0]}),
    ("[operator]\nkind = ball\n", "operator", {"kind": "ball", "center": [0.0], "radius": 1.0}),
    ("[operator]\nkind = ball\ncenter = 1 1\nradius = 2\n", "operator",
     {"kind": "ball", "center": [1.0, 1.0], "radius": 2.0}),
    ("[operator]\nkind = polyhedron\nconstraints = -1 : 0\n", "operator",
     {"kind": "polyhedron", "normals": [[-1.0]], "offsets": [0.0]}),
    ("[operator]\nkind = polyhedron\nconstraints = -1 0 : 0 ; 0 -1 : 0 ; 1 1 : 1\n", "operator",
     {"kind": "polyhedron", "normals": [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
      "offsets": [0.0, 0.0, 1.0]}),
    ("[operator]\nkind = linear\n", "operator", {"kind": "linear", "matrix": [[1.0]]}),
    ("[operator]\nkind = linear\nmatrix = 2 0.5;-0.5 1\n", "operator",
     {"kind": "linear", "matrix": [[2.0, 0.5], [-0.5, 1.0]]}),
    ("[operator]\nkind = zero\n", "operator", {"kind": "zero", "dimension": 1}),
    ("[operator]\nkind = zero\ndimension = 3\n", "operator", {"kind": "zero", "dimension": 3}),
    ("", "projection", {"kind": "classical"}),
    ("[projection]\nkind = classical\n", "projection", {"kind": "classical"}),
    ("[projection]\nkind = elastic\n", "projection", {"kind": "elastic"}),
    ("[projection]\nkind = elastic\nc = 0.5\n", "projection", {"kind": "elastic", "c": 0.5}),
    ("[projection]\nkind = elastic_iterated\n", "projection", {"kind": "elastic_iterated"}),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\ntol = 1e-8\nmax_iter = 50\n",
     "projection", {"kind": "elastic_iterated", "c": 0.5, "tol": 1e-08, "max_iter": 50}),
    ("", "coefficient", {"kind": "zero"}),
    ("[coefficient]\nkind = zero\n", "coefficient", {"kind": "zero"}),
    ("[coefficient]\nkind = constant\n", "coefficient", {"kind": "constant"}),
    ("[coefficient]\nkind = constant\nmatrix = 2\n", "coefficient",
     {"kind": "constant", "matrix": [[2.0]]}),
    ("[coefficient]\nkind = diag_linear\n", "coefficient", {"kind": "diag_linear"}),
    ("[coefficient]\nkind = diag_linear\nscale = 0.5\n", "coefficient",
     {"kind": "diag_linear", "scale": [0.5]}),
    ("[coefficient]\nkind = bounded_sin\n", "coefficient", {"kind": "bounded_sin"}),
    ("[coefficient]\nkind = bounded_sin\nbase = 1\namplitude = 0.5\n", "coefficient",
     {"kind": "bounded_sin", "base": 1.0, "amplitude": 0.5}),
    ("[coefficient]\nkind = square\n", "coefficient", {"kind": "square"}),
    ("", "driver", {}),
    ("[driver]\nsigma = 1\ndrift = 0.5\njump_rate = 2\njump_law = gaussian\n", "driver",
     {"sigma": [[1.0]], "drift": [0.5], "jump_rate": 2.0, "jump_law": "gaussian"}),
    ("[driver]\njump_rate = 2\njump_law = gaussian\njump_mean = 0.1\njump_cov = 0.25\n", "driver",
     {"jump_rate": 2.0, "jump_law": "gaussian", "jump_mean": [0.1], "jump_cov": [[0.25]]}),
    ("[driver]\njump_rate = 1\njump_law = uniform_ball\njump_radius = 0.5\n", "driver",
     {"jump_rate": 1.0, "jump_law": "uniform_ball", "jump_radius": 0.5}),
    ("[driver]\njump_rate = 1\njump_law = fixed\njump_value = -0.5\n", "driver",
     {"jump_rate": 1.0, "jump_law": "fixed", "jump_value": [-0.5]}),
    ("[driver]\nh_sigma = 0.5\nh_drift = 1\nh_jump_rate = 1\nh_jump_law = gaussian\n", "driver",
     {"h_sigma": [[0.5]], "h_drift": [1.0], "h_jump_rate": 1.0, "h_jump_law": "gaussian"}),
    ("[driver]\nh_jump_rate = 1\nh_jump_law = gaussian\nh_jump_mean = 0\nh_jump_cov = 2\n",
     "driver", {"h_jump_rate": 1.0, "h_jump_law": "gaussian", "h_jump_mean": [0.0],
                "h_jump_cov": [[2.0]]}),
    ("[driver]\nh_jump_rate = 1\nh_jump_law = uniform_ball\nh_jump_radius = 1\n", "driver",
     {"h_jump_rate": 1.0, "h_jump_law": "uniform_ball", "h_jump_radius": 1.0}),
    ("[driver]\nh_jump_rate = 1\nh_jump_law = fixed\nh_jump_value = 1\nh0 = 2\n", "driver",
     {"h_jump_rate": 1.0, "h_jump_law": "fixed", "h_jump_value": [1.0], "h0": [2.0]}),
    ("[operator]\nkind = box\nlo = 0 0\nhi = 1 1\n[driver]\nsigma = 1 0; 0 2\ndrift = 1 -1\n"
     "jump_rate = 1\njump_law = gaussian\njump_mean = 0 0\njump_cov = 1 0; 0 1\nh0 = 0.5 0.5\n",
     "driver", {"sigma": [[1.0, 0.0], [0.0, 2.0]], "drift": [1.0, -1.0], "jump_rate": 1.0,
                "jump_law": "gaussian", "jump_mean": [0.0, 0.0],
                "jump_cov": [[1.0, 0.0], [0.0, 1.0]], "h0": [0.5, 0.5]}),
]


@pytest.mark.parametrize("text, section, expected", PINS,
                         ids=[f"{s}-{i}" for i, (_, s, _) in enumerate(PINS)])
def test_section_dict_is_pinned(text, section, expected):
    assert getattr(parse_config_text(text), section) == expected


def test_experiment_keys_fill_their_fields():
    cfg = parse_config_text("""
[experiment]
horizon = 2
levels = 4 8
yosida_levels = 2 4
trajectories = 3
seed = 7
checkpoints = 1 2j
workers = 2
flow_substeps = 8
drift_substeps = 2
reference_refine = 8
out = results
format = jsonl
""")
    assert (cfg.horizon, cfg.levels, cfg.yosida_levels, cfg.trajectories, cfg.seed) == \
        (2.0, (4, 8), (2, 4), 3, 7)
    assert [(c.time, c.continuity_expected) for c in cfg.checkpoints] == [(1.0, True), (2.0, False)]
    assert (cfg.workers, cfg.flow_substeps, cfg.drift_substeps, cfg.reference_refine) == (2, 8, 2, 8)
    assert (cfg.out_dir, cfg.format) == ("results", "jsonl")
    # without checkpoints the midpoint of the horizon is compared
    assert [c.time for c in parse_config_text("[experiment]\nhorizon = 3\n").checkpoints] == [1.5]


BUILDERS = {
    "operator": lambda spec, d: build_operator(spec),
    "projection": lambda spec, d: build_projection(spec),
    "coefficient": build_coefficient,
}


@pytest.mark.parametrize("text, section", [(t, s) for t, s, _ in PINS if s in BUILDERS],
                         ids=[f"{s}-{i}" for i, (_, s, _) in enumerate(PINS) if s in BUILDERS])
def test_builder_round_trips_its_spec(text, section):
    cfg = parse_config_text(text)
    d = build_operator(cfg.operator).dimension
    build = BUILDERS[section]
    spec = build(getattr(cfg, section), d).spec
    assert build(spec, d).spec == spec
