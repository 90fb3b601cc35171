"""Every function the benchmark's layer trace wraps still exists where it names it.

``perfbench/run.py --trace 1`` resolves each target of
``perfbench.layers.LAYERS`` and refuses to install when a method is not
defined on the named class itself.  A refactor that deletes, renames or
moves a traced method would otherwise go unnoticed until someone runs the
traced benchmark.
"""

import pytest

from perfbench.layers import LAYERS
from perfbench.trace import _resolve

TARGETS = [target for layer in LAYERS for target in layer.targets]


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves(target):
    owner, attr = _resolve(target)
    assert callable(getattr(owner, attr))


def test_every_layer_names_a_target():
    assert LAYERS and all(layer.targets for layer in LAYERS)
