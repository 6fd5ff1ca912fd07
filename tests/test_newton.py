import numpy as np
import pytest

from glgmix import _newton

# Row 0 climbs -sum cosh(theta - c) to its top; row 1 reports a score that
# points downhill, so every halving of every step is refused; row 2 is not
# finite at its start; row 3 starts 30 steps of at most 1 from its top.
CENTRES = np.array([[0.3, 0.1], [0.0, 0.0], [0.0, 0.0], [30.0, 0.0]])
STARTS = np.array([[2.0, -1.5], [0.0, 0.0], [200.0, 0.0], [0.0, 0.0]])
GTOL, MAX_ITER = 1e-10, 5


def objective(theta, rows, calls):
    calls.append(rows.copy())
    d = theta - CENTRES[rows]
    loglik = -np.cosh(d).sum(axis=1)
    score = -np.sinh(d)
    hess = -np.cosh(d)[:, :, None] * np.eye(2)
    lying = rows == 1
    loglik[lying] = -(theta[lying] ** 2).sum(axis=1)
    score[lying] = 10.0
    hess[lying] = -np.eye(2)
    loglik[(rows == 2) & (theta[:, 0] > 100.0)] = np.nan
    return loglik, score, hess


def climb_alone(row):
    calls = []
    climb = _newton.maximise(lambda t, r: objective(t, np.array([row])[r], calls),
                             STARTS[[row]], GTOL, MAX_ITER)
    return climb, calls


class TestStackedClimb:
    def test_each_row_climbs_as_it_would_alone(self):
        calls = []
        stack = _newton.maximise(lambda t, r: objective(t, r, calls), STARTS, GTOL, MAX_ITER)
        for row in range(len(STARTS)):
            alone, _ = climb_alone(row)
            np.testing.assert_array_equal(stack.theta[row], alone.theta[0])
            assert stack.traces[row] == alone.traces[0]
            assert stack.started[row] == alone.started[0]
            assert stack.converged[row] == alone.converged[0]
            if alone.started[0]:
                assert stack.loglik[row] == alone.loglik[0]
                # the score where each stopped, read off the objective
                at = np.array([row])
                np.testing.assert_array_equal(objective(stack.theta[at], at, [])[1],
                                              objective(alone.theta, at, [])[1])
                np.testing.assert_array_equal(stack.hess[row], alone.hess[0])

    def test_row_outcomes(self):
        stack = _newton.maximise(lambda t, r: objective(t, r, []), STARTS, GTOL, MAX_ITER)
        assert stack.converged.tolist() == [True, False, False, False]
        assert stack.started.tolist() == [True, True, False, True]
        np.testing.assert_allclose(stack.theta[0], CENTRES[0], atol=1e-10)
        # no halving accepted: the row stops where it started
        assert len(stack.traces[1]) == 1
        np.testing.assert_array_equal(stack.theta[1], STARTS[1])
        # unavailable at the start: flagged for that row only, no trace
        assert stack.traces[2] == []
        np.testing.assert_array_equal(stack.theta[2], STARTS[2])
        assert np.isnan(stack.loglik[2])
        # max_iter steps of length 1
        assert len(stack.traces[3]) == MAX_ITER + 1
        np.testing.assert_allclose(stack.theta[3], [5.0, 0.0])

    def test_halving_rounds_evaluate_only_pending_rows(self):
        calls = []
        _newton.maximise(lambda t, r: objective(t, r, calls), STARTS, GTOL, MAX_ITER)
        for row in range(len(STARTS)):
            _, alone = climb_alone(row)
            assert sum(int(np.sum(c == row)) for c in calls) == len(alone)
        # the refused row alone is left after the other rows' first step
        assert any(c.tolist() == [1] for c in calls)

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_max_iter_bounds_every_row(self, max_iter):
        stack = _newton.maximise(lambda t, r: objective(t, r, []), STARTS, GTOL, max_iter)
        assert all(len(t) <= max_iter + 1 for t in stack.traces)
