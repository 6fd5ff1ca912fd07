import numpy as np
import pytest

from glgmix import _newton
from glgmix.results import TraceRecord

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


def halving_objective(theta, rows, calls):
    """The rows of ``objective``, and a row 4 that climbs -5 |theta|^2 on a
    Hessian ten times too flat, so its full steps overshoot and are halved."""
    calls.append(rows.copy())
    loglik, score, hess = np.empty(len(rows)), np.empty((len(rows), 2)), np.empty((len(rows), 2, 2))
    low = rows < 4
    if low.any():
        loglik[low], score[low], hess[low] = objective(theta[low], rows[low], [])
    loglik[~low] = -5.0 * (theta[~low] ** 2).sum(axis=1)
    score[~low] = -10.0 * theta[~low]
    hess[~low] = -np.eye(2)
    return loglik, score, hess


HALVING_STARTS = np.vstack([STARTS, [[0.3, 0.2]]])


def reference_traces(objective, theta, gtol, max_iter, size=_newton._max_abs):
    """The traces of :func:`_newton.maximise` built as the loop ran, one
    record per row at each accepted step (kept verbatim)."""
    available, _newton_step, _try_step, _halve = (
        _newton.available, _newton._newton_step, _newton._try_step, _newton._halve)
    theta = np.array(theta, dtype=float)
    loglik, score, hess = (np.array(v, dtype=float) for v in objective(theta, np.arange(len(theta))))
    started = available(loglik, score, hess)
    with np.errstate(all="ignore"):  # unavailable rows may overflow or be NaN
        sizes = np.where(started, size(theta, score), np.nan)
    traces = tuple(
        [TraceRecord(iteration=0, loglik=float(ll), max_grad=float(s))] if ok else []
        for ll, s, ok in zip(loglik.tolist(), sizes.tolist(), started.tolist())
    )
    final = [theta, loglik, score, hess, sizes]
    climbing = started & (sizes >= gtol) & (max_iter > 0)
    rows, state = np.arange(len(theta)), final
    if not climbing.all():
        rows, state = rows[climbing], [a[climbing] for a in final]
    iteration = 0
    while rows.size:
        iteration += 1
        step = _newton_step(state[3], state[2])
        new, moved = _try_step(objective, size, state, step, rows)
        if not moved.all():
            _halve(objective, size, state, step, rows, new, moved)
        for r, ok, ll, s in zip(rows.tolist(), moved.tolist(), new[1].tolist(), new[4].tolist()):
            if ok:
                traces[r].append(TraceRecord(iteration=len(traces[r]), loglik=ll, max_grad=s))
        stop = ~moved | (new[4] < gtol) | (iteration >= max_iter)
        if rows.size == len(theta) and stop.all():  # the whole stack stops at once
            final, rows = new, rows[:0]
        elif stop.any():
            for a, n in zip(final, new):
                a[rows[stop]] = n[stop]
            rows, new = rows[~stop], [n[~stop] for n in new]
        state = new
    return traces


class TestTracesBuiltWhenRead:
    """The loop keeps each iteration's accepted values as arrays; the per-row
    trace records are built from them on the first read of ``traces``."""

    def count_records(self, monkeypatch):
        built = []
        real = _newton.TraceRecord

        def counted(**fields):
            built.append(fields)
            return real(**fields)

        monkeypatch.setattr(_newton, "TraceRecord", counted)
        return built

    def test_no_records_until_read(self, monkeypatch):
        built = self.count_records(monkeypatch)
        stack = _newton.maximise(lambda t, r: halving_objective(t, r, []), HALVING_STARTS, GTOL, MAX_ITER)
        assert built == []
        traces = stack.traces
        assert len(built) == sum(len(t) for t in traces) > len(HALVING_STARTS)
        assert stack.traces is traces and len(built) == sum(len(t) for t in traces)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, MAX_ITER, 100])
    def test_equal_to_the_records_built_as_the_loop_ran(self, max_iter):
        calls = []
        stack = _newton.maximise(lambda t, r: halving_objective(t, r, calls), HALVING_STARTS,
                                 GTOL, max_iter)
        want = reference_traces(lambda t, r: halving_objective(t, r, []), HALVING_STARTS,
                                GTOL, max_iter)
        assert stack.traces == want
        assert repr(stack.traces) == repr(want)
        if max_iter >= 1:
            # row 4 is evaluated more often than it moves: its steps were halved
            assert sum(int(np.sum(c == 4)) for c in calls) > len(stack.traces[4])
            assert len(stack.traces[1]) == 1  # no halving lets row 1 move
        assert stack.traces[2] == []  # unavailable at its start

    def test_rows_stopping_at_different_iterations(self):
        # every subset of the rows, each row stopped by its own rule
        for mask in range(1, 2 ** len(HALVING_STARTS)):
            pick = np.flatnonzero([(mask >> k) & 1 for k in range(len(HALVING_STARTS))])

            def sub(t, r):
                return halving_objective(t, pick[r], [])

            stack = _newton.maximise(sub, HALVING_STARTS[pick], GTOL, MAX_ITER)
            assert stack.traces == reference_traces(sub, HALVING_STARTS[pick], GTOL, MAX_ITER)

    def test_fields_are_python_numbers(self):
        stack = _newton.maximise(lambda t, r: halving_objective(t, r, []), HALVING_STARTS, GTOL, MAX_ITER)
        for trace in stack.traces:
            for k, record in enumerate(trace):
                assert type(record.iteration) is int and record.iteration == k
                assert type(record.loglik) is float and type(record.max_grad) is float
