import itertools
import types

import numpy as np
import pytest

import tracing
from peftlab import checkpoint, tensor, train
from peftlab.tensor import Tensor


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    st = tracing.self_times(spans)
    assert st["root"] == [10.0 - 3.0 - 4.0, 1]
    assert st["a"] == [(3.0 - 1.0) + 4.0, 2]
    assert st["b"] == [1.0, 1]
    assert tracing.inclusive_times(spans) == {"root": 10.0, "a": 7.0, "b": 1.0}


def test_wrapped_calls_record_nested_spans():
    ticks = itertools.count()
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    # outer opens at 0, inner spans 1..2, outer closes at 3
    assert tr.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    assert tracing.self_times(tr.spans) == {"outer": [2.0, 1], "inner": [1.0, 1]}


def test_span_closes_when_the_call_raises():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert len(tr.spans) == 1 and tr.spans[0][2] >= tr.spans[0][1]
    assert tr.wrap("ok", lambda: 1)() == 1
    assert tr.spans[1][3] == -1  # the failed span was popped


@pytest.mark.parametrize("values", [[5.0], [3.0, 1.0], [1, 2, 3, 4], list(range(101)),
                                    [0.7, 0.1, 9.5, 2.2, 2.2, 4.0, 1e-3]])
@pytest.mark.parametrize("q", [0, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(values, q):
    assert tracing.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


def test_patcher_rebinds_every_alias_and_restores():
    sentinel = object()
    a = types.SimpleNamespace(f=sentinel, g=1)
    b = types.SimpleNamespace(h=sentinel)
    p = tracing.Patcher()
    assert p.replace_everywhere(sentinel, "new", [a, b]) == 2
    assert a.f == "new" and b.h == "new" and a.g == 1
    p.restore()
    assert a.f is sentinel and b.h is sentinel and p.saved == []


def _snapshot():
    """Attributes of every peftlab module and of every class defined in one."""
    owners = []
    for module in tracing._peftlab_modules():
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
    return {id(o): dict(vars(o)) for o in owners}


def test_installed_restores_every_attribute_even_on_error():
    before = _snapshot()
    original_gelu = tensor.gelu
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()) as patcher:
            assert tensor.gelu is not original_gelu
            assert train.load_backbone is checkpoint.load_backbone is not before[id(checkpoint)]["load_backbone"]
            assert len(patcher.saved) > 30
            raise RuntimeError("stop")
    after = _snapshot()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        assert all(after[key][k] is v for k, v in attrs.items())


def test_traced_ops_time_forward_and_backward_and_keep_results():
    def loss_and_grad():
        x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        w = Tensor(np.linspace(0.5, -0.5, 8).reshape(2, 4), requires_grad=True)
        loss = tensor.softmax_cross_entropy(tensor.gelu(tensor.linear(x, w)), np.array([0, 1, 1]))
        loss.backward()
        return loss.item(), w.grad.copy()

    plain = loss_and_grad()
    tr = tracing.Tracer()
    with tracing.installed(tr):
        traced = loss_and_grad()
    assert traced[0] == plain[0] and np.array_equal(traced[1], plain[1])
    st = tracing.self_times(tr.spans)
    for op in ("linear", "gelu", "softmax_cross_entropy"):
        assert st[f"tensor.{op}.fwd"][1] == 1
        assert st[f"tensor.{op}.bwd"][1] == 1
    assert st["tensor.backward"][1] == 1
    # backward closures run inside the sweep, so their time leaves its self time
    incl = tracing.inclusive_times(tr.spans)
    bwd = sum(incl[f"tensor.{op}.bwd"] for op in ("linear", "gelu", "softmax_cross_entropy"))
    assert st["tensor.backward"][0] == pytest.approx(incl["tensor.backward"] - bwd)


def test_step_clock_splits_steps():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0, 12.0, 14.0, 15.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    opt = object()
    tr.step_begin(opt)        # 0
    tr.count_op()
    tr.backward_begin()       # 1: forward 1
    tr.backward_end()         # 3: backward 2
    tr.step_end(opt)          # 4: step 4 ms * 1000
    tr.step_begin(opt)        # 10: waited 6
    tr.backward_begin()       # 11
    tr.backward_end()         # 12
    tr.step_end(opt)          # 14
    tr.step_begin(object())   # 15: another optimizer, no wait counted
    assert tr.step_ms == [4000.0, 4000.0]
    assert (tr.forward_s, tr.backward_s, tr.batch_wait_s, tr.forward_ops) == (2.0, 3.0, 6.0, 1)
