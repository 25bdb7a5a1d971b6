"""Scikit-learn style estimators wrapping the partition drivers.

fit(X) accepts a Digraph or an edge list, exposes labels_ over vertex ids
(-1 for an auxiliary vertex, as scikit-learn's DBSCAN labels noise) and
follows the get_params/set_params convention, so the components integrate
with pipelines and model-selection tooling without a scikit-learn dependency.
"""

from __future__ import annotations

import inspect

from .driver import compute_4ecc_prepared, compute_k2ecc
from .gen import sub_rng
from .validation import as_digraph


class _BaseEstimator:
    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for "
                                 f"{type(self).__name__}")
            setattr(self, name, value)
        return self

    def _fitted(self, g, part):
        """Store the Partition part, restricted to the ordinary vertices of
        g, as the fit's result: labels_[v] is v's component, -1 for every
        other vertex id of g.  Returns self."""
        part = part.restrict(g.ordinary_vertices())
        self.partition_ = part
        self.labels_ = [part.label.get(v, -1) for v in range(g.n_slots())]
        self.n_components_ = part.n_blocks
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class KPlusTwoComponents(_BaseEstimator):
    """Cluster the vertices of a k-edge-connected digraph into its
    (k+2)-edge-connected components.

    Parameters mirror the pipeline: failure budget delta, mode ("rand" or
    "exact", which draws nothing), and a seed from which all randomness is
    derived.  After fit, labels_[v] is vertex v's component, -1 for an
    auxiliary vertex.
    """

    def __init__(self, k=2, delta=0.25, mode="rand", seed=0):
        self.k = k
        self.delta = delta
        self.mode = mode
        self.seed = seed
        self.labels_ = None
        self.n_components_ = None
        self.partition_ = None

    def fit(self, X, y=None):
        g = as_digraph(X)
        part = compute_k2ecc(g, self.k, self.delta, self.mode,
                             sub_rng(self.seed, "k2ecc"))
        return self._fitted(g, part)

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_


class PreparedFourComponents(_BaseEstimator):
    """Cluster the ordinary vertices of a prepared strongly connected graph
    (ordinary vertices 3-edge-connected) into 4-edge-connected components;
    mode is "rand" or "exact", and labels_ is shaped as KPlusTwoComponents'
    is."""

    def __init__(self, delta=0.25, mode="rand", seed=0):
        self.delta = delta
        self.mode = mode
        self.seed = seed
        self.labels_ = None
        self.n_components_ = None
        self.partition_ = None

    def fit(self, X, y=None, ordinary=None):
        g = as_digraph(X, ordinary=ordinary)
        part = compute_4ecc_prepared(g, self.delta, self.mode,
                                     sub_rng(self.seed, "4ecc"))
        return self._fitted(g, part)

    def fit_predict(self, X, y=None, ordinary=None):
        return self.fit(X, ordinary=ordinary).labels_
