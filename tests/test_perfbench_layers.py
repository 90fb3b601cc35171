"""The benchmark's workloads and layer trace still match the library.

``perfbench/run.py --trace 1`` resolves each target of
``perfbench.layers.LAYERS`` and refuses to install when a method is not
defined on the named class itself.  A refactor that deletes, renames or
moves a traced method would otherwise go unnoticed until someone runs the
traced benchmark.

Every workload of ``perfbench.workloads`` is also built here, without
``prepare`` or ``run`` (no pass, no pool spawn), so a library name the
benchmark imports or calls while building its inputs cannot go missing
unnoticed either.
"""

import json
from multiprocessing import active_children
from pathlib import Path

import pytest

from perfbench.layers import LAYERS
from perfbench.trace import _resolve
from perfbench.workloads import WORKLOADS

TARGETS = [target for layer in LAYERS for target in layer.targets]

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves(target):
    owner, attr = _resolve(target)
    assert callable(getattr(owner, attr))


def test_every_layer_names_a_target():
    assert LAYERS and all(layer.targets for layer in LAYERS)


def test_every_declared_workload_is_defined():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_without_running(name, tmp_path):
    children = {child.pid for child in active_children()}
    workload = WORKLOADS[name](seed=0, workdir=tmp_path)
    assert workload.name == name
    assert workload.operations > 0
    assert {child.pid for child in active_children()} == children
