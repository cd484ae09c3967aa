import numpy as np
import pytest

from mmsde.cli import EXIT_CONFIG, main
from mmsde.config import build_operator, parse_config_text


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
    assert op.in_domain(np.array([0.25, 0.25]))
    assert not op.in_domain(np.array([0.75, 0.75]))  # cut off by the third constraint


# (section text, field named by the error); each config is otherwise valid
MALFORMED = [
    ("[operator]\nkind = ball\ncenter = 0 0\nradius = one\n", "operator.radius"),
    ("[operator]\nkind = halfspace\nnormal = -1\noffset = zero\n", "operator.offset"),
    ("[operator]\nkind = polyhedron\nconstraints = -1 0 : zero\n", "operator.constraints"),
    ("[operator]\nkind = zero\ndimension = two\n", "operator.dimension"),
    ("[projection]\nkind = elastic\nc = half\n", "projection.c"),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\ntol = small\n", "projection.tol"),
    ("[projection]\nkind = elastic_iterated\nc = 0.5\nmax_iter = 1.5\n", "projection.max_iter"),
    ("[coefficient]\nkind = bounded_sin\nbase = one\n", "coefficient.base"),
    ("[coefficient]\nkind = bounded_sin\namplitude = x\n", "coefficient.amplitude"),
    ("[driver]\njump_rate = often\n", "driver.jump_rate"),
    ("[driver]\nh_jump_rate = 1\nh_jump_law = uniform_ball\nh_jump_radius = r\n",
     "driver.h_jump_radius"),
    ("[experiment]\nhorizon = long\n", "experiment.horizon"),
    ("[experiment]\ntrajectories = many\n", "experiment.trajectories"),
    ("[experiment]\ncheckpoints = 0.5 late\n", "experiment.checkpoints"),
    ("[experiment]\ntruncation_radius = wide\n", "experiment.truncation_radius"),
    ("[experiment]\ntruncation_radius = 0.5\n", "experiment.truncation_radius"),
    ("[driver]\nh0 = -1\n", "driver.h0"),
    ("[operator]\nkind = box\nlo = 0 0\nhi = 1 1\n[driver]\nh0 = 0.5 2\n", "driver.h0"),
]


@pytest.mark.parametrize("text, field", MALFORMED, ids=[f for _, f in MALFORMED])
def test_malformed_config_names_its_field_and_exits_2(tmp_path, capsys, text, field):
    config = tmp_path / "bad.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
    assert not out.exists()
