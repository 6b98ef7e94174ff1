"""Iterative magnitude pruning with weight rewind (lottery-ticket style).

Units are conv filters when the network has convolutions, otherwise the
output neurons of hidden dense layers.  A unit's score is the plain
signed sum of its incoming weights; pass ``method='l1'`` for the
absolute-sum variant.  Masked units stay at exactly zero: their rows,
their biases and every downstream consumer column are zeroed, and the
backward pass pins their gradients to zero.  The parameters a report
counts as remaining are exactly those that zeroing leaves
(:func:`pau.network.param_count`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import Conv2d, Network, param_count
from .train import TrainConfig, evaluate, train_epochs


@dataclass
class PruneSchedule:
    fractions: tuple = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60)
    retrain: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        fr = tuple(float(p) for p in self.fractions)
        if any(not 0.0 <= p < 1.0 for p in fr):
            raise ValueError("fractions must lie in [0, 1)")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("fractions must be strictly increasing")
        self.fractions = fr


@dataclass
class PruneRow:
    p: float
    params_remaining: int
    test_acc: float


@dataclass
class PruneReport:
    rows: list

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("p,params_remaining,test_acc\n")
            for r in self.rows:
                fh.write(f"{r.p!r},{r.params_remaining},{r.test_acc!r}\n")


def prunable_layer_indices(net: Network):
    """Conv layers when any exist, otherwise hidden dense layers."""
    params = net.parametric_indices()
    convs = [i for i in params if isinstance(net.specs[i], Conv2d)]
    return convs or params[:-1]  # dense: never prune the output layer


def score_units(net: Network, method: str = "sum"):
    """Per-layer unit scores: sum (or abs-sum) of each unit's incoming
    weights, biases excluded."""
    if method not in ("sum", "l1"):
        raise ValueError(f"unknown scoring method {method!r}")
    scores = {}
    for i in prunable_layer_indices(net):
        W = net.weights[i]["W"]
        per_unit = W if method == "sum" else np.abs(W)
        inputs = tuple(a for a in range(W.ndim) if a != net.specs[i].out_axis)
        scores[i] = per_unit.sum(axis=inputs)
    return scores


def apply_prune(net: Network, p: float, method: str = "sum"):
    """Mask the floor(p * units) lowest-scoring units of every prunable
    layer (ties to the lower index; already-masked units count as lowest,
    which makes re-application with the same p a no-op).  Mutates the
    network in place and returns the mask mapping."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if not prunable_layer_indices(net):
        raise ValueError("network has no prunable layer")
    scores = score_units(net, method)
    for i, s in scores.items():
        units = s.size
        k = math.floor(p * units)
        if k == 0:
            continue
        if k >= units:
            raise ValueError(f"pruning {k} of {units} units would empty layer {i}")
        ranked = s.astype(np.float64).copy()
        prior = net.masks.get(i)
        if prior is not None:
            ranked[~prior] = -np.inf
        order = np.argsort(ranked, kind="stable")
        keep = np.ones(units, dtype=bool)
        keep[order[:k]] = False
        net.masks[i] = keep
    net.params_changed()
    return {i: m.copy() for i, m in net.masks.items()}


def rewind(net: Network, reference: Network):
    """Reset every trained parameter to its value in ``reference`` (the
    original initialization), then re-zero the masked entries.  Surviving
    weights come back bit-identical."""
    ref = dict(reference.params())
    for key, arr in net.params():
        arr[...] = ref[key]
    net.params_changed()


def lottery_run(build_fn, train_data, test_data, schedule: PruneSchedule,
                method: str = "sum") -> PruneReport:
    """Train a copy of the original initialization once; then, for each
    fraction p, mask the lowest-sum units of a copy of it at p, rewind
    survivors to their original values, retrain, and record the remaining
    parameters and the accuracy on all of ``test_data``, its one
    evaluation.  Every fraction starts from that one trained network (fresh
    mask per p, no compounding), as fresh runs would: training depends only
    on the config and the init."""
    net0, cfg = build_fn(), schedule.retrain
    trained = net0.copy()
    for _ in train_epochs(trained, train_data, test_data, cfg):
        pass
    rows = []
    for p in schedule.fractions:
        net = trained.copy()
        apply_prune(net, p, method)
        rewind(net, net0)
        for _ in train_epochs(net, train_data, test_data, cfg):
            pass
        rows.append(PruneRow(p, param_count(net)[0], evaluate(net, test_data)))
    return PruneReport(rows)
