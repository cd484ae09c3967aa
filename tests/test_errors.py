import pickle

import numpy as np

from mmsde import ConfigError, DomainViolationError, ExplosionError, NonConvergenceError


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


def test_explosion_error_pickles_with_context():
    raised = ExplosionError("blew up", last=np.array([1e200]), trajectory=17,
                            step=65, time=0.96875)
    exc = roundtrip(raised.at_level(64))
    assert type(exc) is ExplosionError
    assert isinstance(exc, NonConvergenceError)
    assert str(exc) == "blew up (level 64)"
    np.testing.assert_array_equal(exc.last, [1e200])
    assert (exc.trajectory, exc.step, exc.time, exc.residual) == (17, 65, 0.96875, None)
    assert (exc.level, exc.reference) == (64, False)
    exc = roundtrip(raised.at_level(256, reference=True))
    assert str(exc) == "blew up (reference run, level 256)"
    assert (exc.trajectory, exc.level, exc.reference) == (17, 256, True)
