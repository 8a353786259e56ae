"""The benchmark's tracer (perfbench/tracing.py) against the current engine.

The traced benchmark run patches peftlab's functions and methods by name;
a renamed or deleted one makes it crash. This test loads the tracer
module from its file, without changing it, installs it, runs a LoRA
training step under it and checks that every patched attribute is
restored afterwards.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.head import LinearHead
from peftlab.lora import LoraConfig, inject
from peftlab.optim import AdamW
from peftlab.rng import Rng
from peftlab.vit import PRESETS, ViTModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lora_step():
    adapted = inject(ViTModel.init(PRESETS["tiny"], seed=0), LoraConfig(rank=2))
    head = LinearHead(5, PRESETS["tiny"].dim)
    params = list(adapted.trainable_parameters().values()) + list(head.parameters().values())
    opt = AdamW(params, lr=1e-2, weight_decay=0.0, schedule="cosine", max_steps=1)
    opt.zero_grad()
    logits = head.forward(adapted.forward(Rng(1).uniform((2, 1, 32, 32))))
    T.softmax_cross_entropy(logits, np.array([0, 1])).backward()
    opt.step()


def test_tracer_patches_the_engine_and_restores_it(tracing):
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as patcher:  # raises if a name it patches is gone
        patched = list(patcher.saved)
        assert all(hasattr(getattr(T, op), "traced_name") for op in tracing.ALL_OPS)
        lora_step()
    assert patched
    left = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, orig in patched
            if vars(owner)[attr] is not orig]
    assert left == []
    names = {span[0] for span in tracer.spans}
    blocks = {f"vit.block{i}.fwd" for i in range(PRESETS["tiny"].depth)}
    assert blocks | {"vit.forward", "tensor.backward", "optim.step"} <= names
    assert len(tracer.step_ms) == 1
