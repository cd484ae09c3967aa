from mmsde.config import parse_config_text
from mmsde.harness import run_convergence

HALFLINE_NON_DYADIC = """
[operator]
kind = halfline

[projection]
kind = classical

[coefficient]
kind = constant
matrix = 1

[driver]
sigma = 1
jump_rate = 2
jump_law = gaussian
jump_cov = 1
h0 = 0.5

[experiment]
levels = 5 15
reference_refine = 2
checkpoints = 0.5 1.0j
trajectories = 4
seed = 3
"""


def test_convergence_table_is_identical_across_worker_counts():
    cfg = parse_config_text(HALFLINE_NON_DYADIC)
    one = run_convergence(cfg.with_overrides(workers=1)).to_csv()
    two = run_convergence(cfg.with_overrides(workers=2)).to_csv()
    assert one.startswith("# reference=ORACLE")
    assert one == two
