import numpy as np

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
