"""The immutable records against frozen dataclasses of the same fields.

Each record class is compared with a twin built by
``dataclasses.dataclass(frozen=True)`` from the same annotations,
defaults and methods: construction by keyword and by position, with and
without defaults, every validation error, ``==``, ``hash`` and ``repr``
must come out the same, assignment and deletion must raise, and
``copy.copy`` and a pickle round-trip must give an equal record.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from glgmix.data_io import ClusterData, ModelSpec
from glgmix.diagnostics import EnvelopeResult
from glgmix.glg_dist import GlgParams, PglgParams
from glgmix.mnb_model import MnbParams, ResidualReport, ScoreInfo
from glgmix.pglg_model import PglgFitOptions
from glgmix.quadrature import QuadratureRule
from glgmix.results import FitResult, TraceRecord
from glgmix.simulate import SimDesign

NAN, INF = float("nan"), float("inf")
X3 = [[1.0, 0.5], [1.0, -0.5], [1.0, 0.0]]


def arrays(*rows):
    return [np.array(row, dtype=float) for row in rows]


# per class: keyword sets that build a record, and keyword sets that each
# raise one of its validation errors
CASES = {
    ModelSpec: (
        [dict(response="y", cluster="g", covariates=["x", "z"], interactions=[["x", "z"]],
              offset="o", add_intercept=False),
         dict(response="y", cluster="g")],
        [dict(response="y", cluster="g", covariates=("x", "x")),
         dict(response="y", cluster="g", covariates=("intercept",)),
         dict(response="y", cluster="g", covariates=("x:z",), interactions=(("x", "z"),))],
    ),
    ClusterData: (
        [dict(id="c1", y=[1, 0, 3], X=X3, offset=[0.0, 0.1, 0.0]),
         dict(id="c2", y=[2], X=[1.0], offset=[0.0])],
        [dict(id="c", y=[], X=np.empty((0, 1)), offset=[]),
         dict(id="c", y=[[1]], X=[[1.0]], offset=[0.0]),
         dict(id="c", y=[1, -1, 0], X=X3, offset=[0.0] * 3),
         dict(id="c", y=[1, 0, 3], X=X3[:2], offset=[0.0] * 3),
         dict(id="c", y=[1, 0, 3], X=np.empty((3, 0)), offset=[0.0] * 3),
         dict(id="c", y=[1, 0, 3], X=X3, offset=[0.0] * 2),
         dict(id="c", y=[1, 0, 3], X=[[1.0, NAN]] * 3, offset=[0.0] * 3),
         dict(id="c", y=[1, 0, 3], X=X3, offset=[0.0, INF, 0.0])],
    ),
    TraceRecord: ([dict(iteration=3, loglik=-12.5, max_grad=1e-7)], []),
    FitResult: (
        [dict(model="mnb", names=["a", "b"], estimates=[0.1, 0.2], std_errors=[0.01, 0.02],
              loglik=-3.0, n_iterations=4, converged=True,
              trace=[TraceRecord(iteration=0, loglik=-3.5, max_grad=0.5)], z_defined=[1, 0]),
         dict(model="pglg", names=("a",), estimates=[0.1], std_errors=None, loglik=-3.0,
              n_iterations=0, converged=False, trace=(), z_defined=(True,))],
        [dict(model="m", names=["a"], estimates=[0.1, 0.2], std_errors=None, loglik=0.0,
              n_iterations=1, converged=True, trace=(), z_defined=[1]),
         dict(model="m", names=["a"], estimates=[0.1], std_errors=None, loglik=0.0,
              n_iterations=1, converged=True, trace=(), z_defined=[1, 1]),
         dict(model="m", names=["a"], estimates=[0.1], std_errors=[0.1, 0.2], loglik=0.0,
              n_iterations=1, converged=True, trace=(), z_defined=[1]),
         dict(model="m", names=["a"], estimates=[0.1], std_errors=[0.0], loglik=0.0,
              n_iterations=1, converged=True, trace=(), z_defined=[1]),
         dict(model="m", names=["a"], estimates=[0.1], std_errors=[NAN], loglik=0.0,
              n_iterations=1, converged=True, trace=(), z_defined=[1])],
    ),
    MnbParams: (
        [dict(beta=[0.5, -0.2], phi=2), dict(beta=0.3, phi=0.5)],
        [dict(beta=[NAN], phi=1.0), dict(beta=[[1.0, 2.0]], phi=1.0),
         dict(beta=[1.0], phi=0.0), dict(beta=[1.0], phi=INF), dict(beta=[1.0], phi=NAN)],
    ),
    ScoreInfo: ([dict(u_beta=np.array([0.1, -0.2]), u_phi=0.2, k_beta=np.eye(2), k_phi=3.0)],
                []),
    ResidualReport: (
        [dict(cluster_ids=("a", "a"), obs_index=np.array([1, 2]),
              **dict(zip(("fitted", "leverage", "dev_comp", "dev_resid", "pearson"),
                         arrays([1.5, 2.5], [0.4, 0.6], [0.1, -0.2], [0.3, NAN], [0.2, -0.3]))))],
        [],
    ),
    EnvelopeResult: (
        [dict(**dict(zip(("theoretical", "observed_sorted", "lower", "median", "upper"),
                         arrays([-1.0, 1.0], [-0.5, 0.7], [-2.0, 0.1], [-1.0, 0.9], [-0.1, 2.0]))),
              n_dropped=1, n_replicates=19, dropped=((3, "not converged"),)),
         dict(**dict(zip(("theoretical", "observed_sorted", "lower", "median", "upper"),
                         arrays([0.0], [0.0], [0.0], [0.0], [0.0]))),
              n_dropped=0, n_replicates=19)],
        [],
    ),
    SimDesign: (
        [dict(n_clusters=4, cluster_sizes=2, x_builder=np.ones((2, 1)), offsets=[0.0, 0.5],
              seed=7, column_names=["x"]),
         dict(n_clusters=3)],
        [dict(n_clusters=2.5), dict(n_clusters="3"), dict(n_clusters=0),
         dict(n_clusters=3, cluster_sizes=(1, 2)), dict(n_clusters=2, cluster_sizes=(1, 2.5)),
         dict(n_clusters=2, cluster_sizes=0), dict(n_clusters=2, cluster_sizes=None),
         dict(n_clusters=2, cluster_sizes=2, x_builder=np.ones(2)),
         dict(n_clusters=2, cluster_sizes=(2, 3), x_builder=np.ones((2, 1))),
         dict(n_clusters=2, cluster_sizes=2, x_builder=np.ones((3, 1))),
         dict(n_clusters=2, cluster_sizes=2, offsets=[0.0, 1.0, 2.0]),
         dict(n_clusters=2, cluster_sizes=(1, 2), offsets=[0.0]),
         dict(n_clusters=2, seed=-1), dict(n_clusters=2, seed=1.5),
         dict(n_clusters=2, column_names="x"), dict(n_clusters=2, column_names=[1])],
    ),
    GlgParams: (
        [dict(mu=0.0, sigma=0.6, lam=-0.5)],
        [dict(mu=NAN, sigma=1.0, lam=0.0), dict(mu=0.0, sigma=INF, lam=0.0),
         dict(mu=0.0, sigma=1.0, lam=-INF), dict(mu=0.0, sigma=0.0, lam=0.0),
         dict(mu=0.0, sigma=-1.0, lam=0.0)],
    ),
    PglgParams: (
        [dict(beta=[0.5, 0.1], sigma=0.6, lam=-0.5), dict(beta=0.5, sigma=1, lam=0)],
        [dict(beta=[INF], sigma=0.6, lam=0.0), dict(beta=[[0.5]], sigma=0.6, lam=0.0),
         dict(beta=[0.5], sigma=0.0, lam=0.0), dict(beta=[0.5], sigma=NAN, lam=0.0),
         dict(beta=[0.5], sigma=0.6, lam=NAN)],
    ),
    QuadratureRule: (
        [dict(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]), order=2)], []),
    PglgFitOptions: (
        [dict(order=20, fix_lambda=0.0, tie_sigma_lambda=False), dict(),
         dict(tie_sigma_lambda=True)],
        [dict(order=2.5), dict(order="40"), dict(order=0), dict(order=101),
         dict(fix_lambda=0.5, tie_sigma_lambda=True)],
    ),
}

# what the record decorator attaches; everything else is the class's own
_ATTACHED = {"__init__", "__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__",
             "__match_args__", "__dict__", "__weakref__"}


def dataclass_twin(cls):
    """The frozen dataclass with ``cls``'s fields, defaults and methods."""
    namespace = {k: v for k, v in vars(cls).items() if k not in _ATTACHED}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def outcome(make, *args, **kwargs):
    """What a call gives, in terms two classes can share: the record's
    repr and field order, or the exception's type and message."""
    try:
        rec = make(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return repr(rec), list(vars(rec))


def result(op):
    try:
        return op()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass(cls):
    twin = dataclass_twin(cls)
    good, bad = CASES[cls]
    names = twin.__match_args__
    assert cls.__match_args__ == names
    assert not dataclasses.is_dataclass(cls)
    for kwargs in good + bad:
        assert outcome(cls, **kwargs) == outcome(twin, **kwargs), kwargs
    for kwargs in bad:
        assert outcome(cls, **kwargs)[0] is not str, kwargs  # each one raises
    for kwargs in good:
        # the leading fields by position, the rest by keyword or by default
        lead = next((k for k, n in enumerate(names) if n not in kwargs), len(names))
        for k in range(lead + 1):
            args = [kwargs[n] for n in names[:k]]
            rest = {n: v for n, v in kwargs.items() if n not in names[:k]}
            assert outcome(cls, *args, **rest) == outcome(twin, *args, **rest) \
                == outcome(cls, **kwargs)
        reversed_kwargs = dict(reversed(kwargs.items()))
        assert outcome(cls, **reversed_kwargs) == outcome(twin, **reversed_kwargs)

        rec, ref = cls(**kwargs), twin(**kwargs)
        for name in (*names, "other"):
            for op in (lambda: setattr(rec, name, 1), lambda: delattr(rec, name)):
                with pytest.raises(AttributeError):
                    op()
        assert repr(rec) == repr(ref)
        assert result(lambda: hash(rec)) == result(lambda: hash(ref))
        again, ref_again = cls(**kwargs), twin(**kwargs)
        for left, right, ref_left, ref_right in [
            (rec, rec, ref, ref), (rec, again, ref, ref_again), (rec, ref, ref, rec),
            (rec, copy.copy(rec), ref, copy.copy(ref)), (rec, None, ref, None),
        ]:
            assert result(lambda: left == right) == result(lambda: ref_left == ref_right)
            assert result(lambda: left != right) == result(lambda: ref_left != ref_right)
        for back in (copy.copy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(back) is cls
            assert repr(back) == repr(rec) and list(vars(back)) == list(vars(rec))
            with pytest.raises(AttributeError):
                back.other = 1


def test_bad_calls_raise_type_error():
    for call in (lambda: GlgParams(0.0, 1.0), lambda: GlgParams(0.0, 1.0, 0.0, 1.0),
                 lambda: GlgParams(0.0, 1.0, lam=0.0, mu=0.0),
                 lambda: GlgParams(mu=0.0, sigma=1.0, lam=0.0, shape=1.0),
                 lambda: PglgFitOptions(1, 2, 3, 4), lambda: ModelSpec(cluster="g")):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(TypeError, match="missing 1 required argument.*'lam'"):
        GlgParams(mu=0.0, sigma=1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'shape'"):
        GlgParams(mu=0.0, sigma=1.0, lam=0.0, shape=1.0)
