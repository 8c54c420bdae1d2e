import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lbsim import nets
from lbsim.nets import (
    Adam,
    DenseLayer,
    DenseNet,
    DivergenceError,
    GradientError,
    InputNormalizer,
    gaussian_head_grads,
    gaussian_head_sample,
)


def rel_err(a, b, floor=1e-6):
    scale = max(abs(a), abs(b))
    if scale < floor:
        return 0.0
    return abs(a - b) / scale


def fd_param_check(loss_fn, params, grads, rng, probes=100, h=1e-5, tol=1e-4):
    """Central finite differences on random parameter entries.

    ``grads`` is a list shaped like ``params`` or one flat vector in
    ``params`` order.  It is copied first: ``loss_fn`` may run a backward
    pass that rewrites the network's gradient buffer.
    """
    if isinstance(grads, np.ndarray):
        cuts = np.cumsum([p.size for p in params])[:-1]
        grads = [g.reshape(p.shape) for g, p in zip(np.split(grads, cuts), params)]
    grads = [np.array(g) for g in grads]
    checked = 0
    while checked < probes:
        k = int(rng.integers(len(params)))
        p, g = params[k], grads[k]
        idx = tuple(int(rng.integers(s)) for s in p.shape)
        x0 = p[idx]
        p[idx] = x0 + h
        up = loss_fn()
        p[idx] = x0 - h
        down = loss_fn()
        p[idx] = x0
        fd = (up - down) / (2 * h)
        assert rel_err(fd, g[idx]) < tol, f"param {k} idx {idx}: fd={fd} analytic={g[idx]}"
        checked += 1


class TestForward:
    def test_identity_layer(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        net = DenseNet([layer])
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(net.forward(x), x)

    def test_zero_weights_give_activated_bias(self):
        b = np.array([0.5, -0.7])
        net = DenseNet([DenseLayer(np.zeros((3, 2)), b, relu=True)])
        out = net.forward(np.ones(3))
        assert np.array_equal(out, [0.5, 0.0])

    def test_duplicate_evaluation_oracle(self):
        # independent straightforward re-evaluation of a 2-layer stack
        rng = np.random.default_rng(0)
        net = DenseNet.build([4, 6, 3], rng)
        x = rng.normal(size=4)
        out = net.forward(x)

        l0, l1 = net.layers
        z = x @ l0.w + l0.b
        mu = z.mean()
        var = ((z - mu) ** 2).mean()
        zhat = (z - mu) / math.sqrt(var + nets.LN_EPS)
        h = np.maximum(l0.gain * zhat + l0.shift, 0.0)
        ref = h @ l1.w + l1.b
        assert np.max(np.abs(out - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(1)
        net = DenseNet.build([5, 8, 2], rng)
        x = rng.normal(size=5)
        a = net.forward(x).copy()
        b = net.forward(x).copy()
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        net = DenseNet.build([4, 3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ValueError):
            DenseNet([
                DenseLayer(np.zeros((2, 3)), np.zeros(3)),
                DenseLayer(np.zeros((4, 1)), np.zeros(1)),
            ])


class TestBackward:
    def test_linear_layer_analytic_forms(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 2))
        net = DenseNet([DenseLayer(w.copy(), np.zeros(2))])
        x = rng.normal(size=3)
        upstream = rng.normal(size=2)
        net.forward(x)
        dx, grads = net.backward(upstream)
        dw, db = grads
        assert np.allclose(db, upstream, atol=1e-15)
        assert np.allclose(dw, np.outer(x, upstream), atol=1e-15)
        assert np.allclose(dx, w @ upstream, atol=1e-15)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(3)
        net = DenseNet.build([4, 8, 8, 2], rng)
        net.forward(rng.normal(size=4))
        dx, grads = net.backward(np.zeros(2))
        assert np.all(dx == 0.0)
        assert all(np.all(g == 0.0) for g in grads)

    def test_backward_without_forward(self):
        net = DenseNet.build([2, 2], np.random.default_rng(0))
        with pytest.raises(GradientError):
            net.backward(np.ones(2))

    @pytest.mark.parametrize("dims,norm", [
        ([4, 8, 3], True),
        ([4, 8, 3], False),
        ([6, 16, 16, 1], True),
    ])
    def test_finite_difference_gradients(self, dims, norm):
        rng = np.random.default_rng(4)
        net = DenseNet.build(dims, rng, layer_norm=norm)
        x = rng.normal(size=(5, dims[0]))
        upstream = rng.normal(size=(5, dims[-1]))

        def loss():
            return float((net.forward(x) * upstream).sum())

        loss()
        _, grads = net.backward(upstream)
        fd_param_check(loss, net.params(), grads, rng, probes=100)

    def test_input_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        net = DenseNet.build([4, 8, 2], rng)
        x = rng.normal(size=4)
        upstream = rng.normal(size=2)
        net.forward(x)
        dx, _ = net.backward(upstream)
        h = 1e-5
        for i in range(4):
            saved = x[i]
            x[i] = saved + h
            up = float((net.forward(x) * upstream).sum())
            x[i] = saved - h
            down = float((net.forward(x) * upstream).sum())
            x[i] = saved
            assert rel_err((up - down) / (2 * h), dx[i]) < 1e-4


class TestFlatStorage:
    def test_params_and_grads_are_views(self):
        net = DenseNet.build([4, 8, 8, 2], np.random.default_rng(12))
        params = net.params()
        assert sum(p.size for p in params) == net.flat.size == net.grad.size
        assert all(np.shares_memory(p, net.flat) for p in params)
        net.forward(np.ones((3, 4)))
        _, grads = net.backward(np.ones((3, 2)))
        assert all(np.shares_memory(g, net.grad) for g in grads)
        assert [g.shape for g in grads] == [p.shape for p in params]

    def test_flat_is_layer_order(self):
        net = DenseNet.build([3, 5, 2], np.random.default_rng(13))
        expected = np.concatenate([p.ravel() for p in net.params()])
        assert net.flat.tobytes() == expected.tobytes()
        net.layers[0].gain[:] = 2.0
        assert np.all(net.flat[3 * 5 + 5:3 * 5 + 10] == 2.0)

    def test_input_only_backward(self):
        rng = np.random.default_rng(15)
        net = DenseNet.build([4, 8, 8, 2], rng)
        x = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 2))
        net.forward(x)
        dx_full, _ = net.backward(upstream)
        net.grad[:] = 0.0
        dx, grads = net.backward(upstream, param_grads=False)
        assert grads is None and np.all(net.grad == 0.0)
        assert dx.tobytes() == dx_full.tobytes()


class TestGaussianHead:
    def test_mode_sample(self):
        ls = np.array([-0.5, 0.3])
        a, logp = gaussian_head_sample(np.zeros(2), ls, np.zeros(2))
        assert np.all(a == 0.0)
        expected = float((-ls - 0.5 * math.log(2 * math.pi)).sum()) \
            - 2 * math.log(1.0 - 0.0 + nets.SQUASH_EPS)
        assert abs(logp - expected) < 1e-12

    def test_tanh_saturation(self):
        a, _ = gaussian_head_sample(np.array([30.0]), np.array([-5.0]), np.zeros(1))
        assert 0.999 < a[0] < 1.0

    def test_samples_strictly_inside_unit_box(self):
        rng = np.random.default_rng(7)
        mean = rng.normal(0, 10, size=(1000, 3))
        log_std = rng.uniform(-3, 2, size=(1000, 3))
        a, _ = gaussian_head_sample(mean, log_std, rng.standard_normal((1000, 3)))
        assert np.all(a > -1.0) and np.all(a < 1.0)

    def test_density_integrates_to_one(self):
        # quadrature over u with the exact change of variables; the +1e-6
        # squash smoothing keeps the integral within 2% of 1
        m, ls = 0.3, math.log(0.5)
        u = np.linspace(m - 8 * 0.5, m + 8 * 0.5, 1_000_001)
        du = u[1] - u[0]
        a = np.tanh(u)
        log_n = -0.5 * ((u - m) / 0.5) ** 2 - math.log(0.5) - 0.5 * math.log(2 * math.pi)
        density_in_a = np.exp(log_n - np.log(1 - a * a + nets.SQUASH_EPS))
        integral = float(np.trapezoid(density_in_a * (1 - a * a), dx=du))
        assert abs(integral - 1.0) < 0.02

    def test_logp_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        mean = rng.normal(size=(4, 2))
        log_std = rng.uniform(-2.0, 1.0, size=(4, 2))
        noise = rng.standard_normal((4, 2))
        _, _, _, _, dlp_dm, dlp_dls = gaussian_head_grads(mean, log_std, noise)

        def logp_sum(m, ls):
            return float(gaussian_head_sample(m, ls, noise)[1].sum())

        h = 1e-5
        for _ in range(50):
            i = int(rng.integers(4))
            j = int(rng.integers(2))
            for arr, grads in ((mean, dlp_dm), (log_std, dlp_dls)):
                saved = arr[i, j]
                arr[i, j] = saved + h
                up = logp_sum(mean, log_std)
                arr[i, j] = saved - h
                down = logp_sum(mean, log_std)
                arr[i, j] = saved
                assert rel_err((up - down) / (2 * h), grads[i, j]) < 1e-4


def head_inputs(lo, hi):
    return hnp.arrays(float, (3, 2), elements=st.floats(lo, hi))


class TestGaussianHeadGrads:
    @given(head_inputs(-30.0, 30.0), head_inputs(-5.0, 2.0), head_inputs(-6.0, 6.0))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_written_out_formulas(self, mean, log_std, noise):
        got = gaussian_head_grads(mean, log_std, noise)
        a, logp = gaussian_head_sample(mean, log_std, noise)
        # the sample, squash and partials, each written out as one expression
        std = np.exp(log_std)
        limit = float(np.nextafter(1.0, 0.0))
        a_ref = np.clip(np.tanh(mean + std * noise), -limit, limit)
        one_m_a2 = 1.0 - a_ref * a_ref
        logp_ref = (-0.5 * noise * noise - log_std - 0.5 * math.log(2.0 * math.pi)
                    - np.log(one_m_a2 + nets.SQUASH_EPS)).sum(axis=-1)
        dlogp_da = 2.0 * a_ref / (one_m_a2 + nets.SQUASH_EPS)
        expected = (a_ref, logp_ref, one_m_a2, one_m_a2 * std * noise,
                    dlogp_da * one_m_a2, -1.0 + dlogp_da * one_m_a2 * std * noise)
        assert got[0].tobytes() == a.tobytes()
        assert got[1].tobytes() == logp.tobytes()
        for k, (x, y) in enumerate(zip(got, expected)):
            assert x.tobytes() == y.tobytes(), k


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0])
        opt = Adam(p)
        opt.step(np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = np.array([0.0])
        opt = Adam(p, lr=1e-3)
        opt.step(np.array([1.0]))
        assert abs(p[0] + 1e-3) < 1e-9  # bias-corrected first step ~ -lr

    def test_constant_gradient_descends(self):
        p = np.array([0.5])
        opt = Adam(p, lr=1e-2)
        for _ in range(100):
            opt.step(np.array([1.0]))
        assert p[0] < 0.5 - 0.5

    def test_nonfinite_gradient_aborts(self):
        p = np.zeros(2)
        opt = Adam(p)
        with pytest.raises(DivergenceError):
            opt.step(np.array([1.0, math.nan]))
        assert opt.step_count == 0 and np.all(p == 0.0) and np.all(opt.m == 0.0)

    def test_rejects_a_list_of_arrays(self):
        with pytest.raises(TypeError):
            Adam([np.zeros(2)])

    def test_flat_step_matches_per_array_update(self):
        # the per-array update this optimizer replaced, written out
        rng = np.random.default_rng(11)
        shapes = [(5, 7), (7,), (7,), (7,), (7, 1), (1,)]
        parts = [rng.normal(size=s) for s in shapes]
        flat = np.concatenate([p.ravel() for p in parts])
        opt = Adam(flat, lr=3e-3)
        m = [np.zeros_like(p) for p in parts]
        v = [np.zeros_like(p) for p in parts]
        b1, b2 = 0.9, 0.999
        for t in range(1, 6):
            grads = [rng.normal(scale=10.0 ** rng.integers(-4, 3), size=s) for s in shapes]
            opt.step(np.concatenate([g.ravel() for g in grads]))
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                parts[i] -= 3e-3 * (m[i] / c1) / (np.sqrt(v[i] / c2) + 1e-8)
            ref = np.concatenate([p.ravel() for p in parts])
            assert flat.tobytes() == ref.tobytes()
            assert opt.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
            assert opt.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()


class TestInputNormalizer:
    def test_constant_stream_normalizes_to_zero(self):
        norm = InputNormalizer(3)
        for _ in range(50):
            norm.update(np.array([4.0, -1.0, 0.5]))
        out = norm.normalize(np.array([4.0, -1.0, 0.5]))
        assert np.max(np.abs(out)) < 1e-9

    def test_running_statistics(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(3.0, 2.0, size=(500, 2))
        norm = InputNormalizer(2)
        for x in xs:
            norm.update(x)
        assert np.allclose(norm.mean, xs.mean(axis=0), atol=1e-10)
        assert np.allclose(norm.var, xs.var(axis=0), atol=1e-10)

    def test_no_updates_passthrough_scale(self):
        norm = InputNormalizer(2)
        out = norm.normalize(np.array([1.0, -1.0]))
        assert np.allclose(out, np.array([1.0, -1.0]) / math.sqrt(1 + nets.LN_EPS))

    def test_state_roundtrip(self):
        norm = InputNormalizer(2)
        for i in range(10):
            norm.update(np.array([i, -i], dtype=float))
        clone = InputNormalizer.from_state(norm.state())
        x = np.array([3.0, 7.0])
        assert np.array_equal(norm.normalize(x), clone.normalize(x))

