import pickle

import numpy as np

from mmsde import ConfigError, DomainViolationError, NonConvergenceError


def roundtrip(exc):
    return pickle.loads(pickle.dumps(exc))


def test_config_error_pickles_with_field():
    exc = roundtrip(ConfigError("experiment.levels", "bad"))
    assert type(exc) is ConfigError
    assert exc.field == "experiment.levels"
    assert exc.message == "bad"
    assert str(exc) == "experiment.levels: bad"


def test_domain_violation_error_pickles_with_context():
    exc = roundtrip(DomainViolationError("outside", point=np.array([1.0, -2.0]), distance=0.5))
    assert type(exc) is DomainViolationError
    assert str(exc) == "outside"
    np.testing.assert_array_equal(exc.point, [1.0, -2.0])
    assert exc.distance == 0.5


def test_non_convergence_error_pickles_with_context():
    exc = roundtrip(NonConvergenceError("stalled", last=np.array([0.25]), residual=1e-3))
    assert type(exc) is NonConvergenceError
    assert str(exc) == "stalled"
    np.testing.assert_array_equal(exc.last, [0.25])
    assert exc.residual == 1e-3
