"""Network, gradient and optimizer checks against independent oracles."""

import numpy as np
import pytest

from skirmish import nn


def test_init_deterministic_and_shaped():
    a = nn.init_params((4, 8, 3), seed=0)
    b = nn.init_params((4, 8, 3), seed=0)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)
    assert [w.shape for w in a.weights] == [(8, 4), (3, 8)]
    assert [bb.shape for bb in a.biases] == [(8,), (3,)]
    assert all((bias == 0).all() for bias in a.biases)
    c = nn.init_params((4, 8, 3), seed=1)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_he_scale():
    net = nn.init_params((256, 256), seed=7)
    observed = net.weights[0].std()
    expected = np.sqrt(2.0 / 256.0)
    assert abs(observed - expected) / expected < 0.10


def test_forward_identity_configuration():
    net = nn.init_params((3, 3), seed=0)
    net.weights[0][:] = np.eye(3)
    net.biases[0][:] = 0.0
    x = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(nn.forward(net, x), x)  # single affine layer, no relu


def test_forward_zero_weights_gives_bias():
    net = nn.init_params((4, 2), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = [1.5, -0.5]
    assert np.array_equal(nn.forward(net, np.ones(4)), [1.5, -0.5])


def _fixed_221():
    net = nn.init_params((2, 2, 1), seed=0)
    net.weights[0][:] = [[1.0, 2.0], [3.0, 4.0]]
    net.biases[0][:] = [1.0, -1.0]
    net.weights[1][:] = [[1.0, -1.0]]
    net.biases[1][:] = [0.5]
    return net


@pytest.mark.parametrize(
    "x,expected",
    [
        ([1.0, -1.0], 0.5),    # both hidden units clipped at zero
        ([2.0, 1.0], -3.5),    # 5 - 9 + 0.5
        ([0.0, 0.0], 1.5),     # relu([1, -1]) -> [1, 0]
    ],
)
def test_forward_hand_computed_table(x, expected):
    net = _fixed_221()
    assert nn.forward(net, np.array(x))[0] == expected


def test_forward_batched_matches_rows():
    # BLAS may reassociate across batch shapes, so equality is near-exact only (to float64 rounding)
    net = nn.init_params((4, 8, 3), seed=2, dtype=np.float64)
    xs = np.random.default_rng(0).normal(size=(5, 4))
    batched = nn.forward(net, xs)
    for i in range(5):
        assert np.allclose(batched[i], nn.forward(net, xs[i]), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_network_computes_in_its_parameters_dtype(dtype):
    net = nn.init_params((4, 8, 3), seed=2, dtype=dtype)
    assert net.dtype == dtype and all(p.dtype == dtype for p in net.params())
    reference = nn.init_params((4, 8, 3), seed=2, dtype=np.float64)
    for p, want in zip(net.params(), reference.params()):
        assert np.array_equal(p, want.astype(dtype))  # one draw, cast
    for x in (np.ones((5, 4), dtype=np.float64), np.ones((5, 4), dtype=np.float32)):
        y, trace = nn.forward_trace(net, x)
        assert y.dtype == dtype and all(a.dtype == dtype for a in trace)
        assert all(g.dtype == dtype for g in nn.backward(net, trace, np.ones((5, 3), dtype=np.float64)))


def test_forward_shape_mismatch():
    net = nn.init_params((4, 3), seed=0)
    with pytest.raises(nn.ShapeMismatch):
        nn.forward(net, np.ones(5))


def test_backward_zero_output_gradient():
    net = nn.init_params((4, 8, 3), seed=3)
    _, trace = nn.forward_trace(net, np.ones(4))
    g = nn.backward(net, trace, np.zeros(3))
    assert [p.shape for p in g] == [p.shape for p in net.params()]
    assert all((p == 0).all() for p in g)


def test_backward_single_linear_layer_outer_product():
    net = nn.init_params((3, 2), seed=0)
    x = np.array([1.0, -2.0, 0.5])
    gy = np.array([2.0, -1.0])
    _, trace = nn.forward_trace(net, x)
    gw, gb = nn.backward(net, trace, gy)
    assert np.array_equal(gw, np.outer(gy, x))
    assert np.array_equal(gb, gy)


def test_backward_purity(monkeypatch):
    net = nn.init_params((4, 8, 3), seed=4)
    snapshot = [p.copy() for p in net.params()]
    _, trace = nn.forward_trace(net, np.ones(4))
    trace_snapshot = [a.copy() for a in trace]

    def no_forward(*args):
        raise AssertionError("backward must reuse the trace, not run forward again")

    monkeypatch.setattr(nn, "forward_trace", no_forward)
    monkeypatch.setattr(nn, "forward", no_forward)
    nn.backward(net, trace, np.ones(3))
    for before, after in zip(snapshot + trace_snapshot, net.params() + trace):
        assert np.array_equal(before, after)


def finite_diff_error(net, x, h=1e-4) -> float:
    """Worst relative error of backward against central differences over every parameter.

    Uses the scalar loss ``0.5 * sum(y^2)``, whose output gradient is the
    forward value itself.  Central differences at ``h = 1e-4`` resolve
    gradients to the 1e-3 the checks ask for only in float64, so ``net`` is
    a float64 network.
    """
    def loss():
        y, _ = nn.forward_trace(net, x)
        return 0.5 * float(np.sum(y * y))

    y, trace = nn.forward_trace(net, x)
    worst = 0.0
    for p, g in zip(net.params(), nn.backward(net, trace, y)):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + h
            hi = loss()
            flat[k] = keep - h
            lo = loss()
            flat[k] = keep
            numeric = (hi - lo) / (2.0 * h)
            worst = max(worst, abs(numeric - gflat[k]) / max(abs(numeric), abs(gflat[k]), 1.0))
    return worst


def test_gradcheck_random_nets():
    rng = np.random.default_rng(12)
    for k in range(10):
        net = nn.init_params((4, 8, 3), seed=100 + k, dtype=np.float64)
        x = rng.normal(size=4)
        assert finite_diff_error(net, x) < 1e-3


def test_gradcheck_detects_corruption():
    net = nn.init_params((4, 8, 3), seed=9, dtype=np.float64)
    x = np.random.default_rng(1).normal(size=4)
    assert finite_diff_error(net, x) < 1e-3

    original = nn.backward

    def corrupted(n, trace, gy):
        g = original(n, trace, gy)
        g[-1][0] += 0.5
        return g

    nn.backward = corrupted
    try:
        assert finite_diff_error(net, x) >= 1e-3
    finally:
        nn.backward = original


def test_gradcheck_zero_input_zero_bias():
    net = nn.init_params((4, 8, 3), seed=5, dtype=np.float64)
    assert finite_diff_error(net, np.zeros(4)) < 1e-3


def test_adam_zero_gradient_is_identity():
    net = nn.init_params((3, 3), seed=0)
    before = [p.copy() for p in net.params()]
    state = nn.OptimState.for_params(net.params(), lr=0.01)
    nn.adam_step(net.params(), [np.zeros_like(p) for p in net.params()], state)
    for b, a in zip(before, net.params()):
        assert np.array_equal(b, a)


def test_adam_first_step_magnitude():
    p = np.array([1.0, -2.0])
    state = nn.OptimState.for_params([p], lr=0.01)
    nn.adam_step([p], [np.array([0.5, -3.0])], state)
    delta = p - np.array([1.0, -2.0])
    # bias-corrected first step is -lr * sign(g) up to the epsilon fuzz
    assert np.allclose(np.abs(delta), 0.01, rtol=1e-6)
    assert delta[0] < 0 < delta[1]


def test_adam_converges_on_quadratic():
    x = np.array([0.0])
    state = nn.OptimState.for_params([x], lr=0.1)
    for _ in range(200):
        grad = 2.0 * (x - 3.0)
        nn.adam_step([x], [grad.copy()], state)
    assert abs(x[0] - 3.0) < 1e-3


def test_params_hash_tracks_content():
    net = nn.init_params((4, 4), seed=0)
    h0 = nn.params_hash(net.params())
    assert h0 == nn.params_hash(net.params())
    assert nn.params_hash([p.astype(np.float64) for p in net.params()]) != h0  # equal values, other bytes
    net.weights[0][0, 0] = np.nextafter(net.weights[0][0, 0], np.float32(np.inf))  # the smallest float32 change
    assert nn.params_hash(net.params()) != h0
