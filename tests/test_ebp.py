"""Network tests: the finite-difference oracle is proven on hand cases
first, then backprop is held to it, then the adaptive-rate schedule is
audited epoch by epoch."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebp_reference import reference_gradient_norm, reference_train
from irisvd import ebp


def tiny_net(w1, b1, w2, b2):
    w1 = np.atleast_2d(np.asarray(w1, dtype=np.float64))
    w2 = np.atleast_2d(np.asarray(w2, dtype=np.float64))
    shape = ebp.MlpShape(n_in=w1.shape[1], n_hidden=w1.shape[0], n_out=w2.shape[0])
    return ebp.Mlp(
        shape=shape,
        w1=w1,
        b1=np.asarray(b1, dtype=np.float64),
        w2=w2,
        b2=np.asarray(b2, dtype=np.float64),
        feature_scaling=((0.0, 1.0),) * shape.n_in,
    )


def random_net(shape, seed):
    return ebp.init(shape, seed=seed)


def random_batch(shape, n_samples, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, (n_samples, shape.n_in))
    labels = rng.integers(0, shape.n_out, n_samples)
    return [
        (xs[i], ebp.encode_target(int(labels[i]), shape.n_out))
        for i in range(n_samples)
    ]


# A non-identity scaling with one constant dimension, which maps to 0.
SCALING = ((1.0, 3.0), (0.0, 9.0), (2.0, 2.0))


def scaled(net, batch):
    """net with SCALING cycled over its inputs, and batch prescaled by it.

    The identity-scaled net on the prescaled batch is what the scaled net
    must compute on the raw batch.
    """
    scaling = tuple(SCALING[i % 3] for i in range(net.shape.n_in))
    pre = [(ebp.apply_scaling(scaling, x), t) for x, t in batch]
    return replace(net, feature_scaling=scaling), pre


def mse_by_forward(net, batch):
    """Per-sample forward passes, stacked; independent of the training path."""
    ys = np.array([ebp.forward(net, x) for x, _ in batch])
    ts = np.array([t for _, t in batch])
    err = ys - ts
    return float(np.mean(err * err))


def numeric_gradient(net, batch, step=1e-6):
    """Central finite differences over every weight and bias."""
    names = ("w1", "b1", "w2", "b2")

    def rebuild(arrs):
        return ebp.Mlp(
            shape=net.shape,
            w1=arrs["w1"],
            b1=arrs["b1"],
            w2=arrs["w2"],
            b2=arrs["b2"],
            feature_scaling=net.feature_scaling,
        )

    out = {}
    for name in names:
        base = getattr(net, name)
        grad = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            arrs = {n: getattr(net, n).copy() for n in names}
            arrs[name][ix] = base[ix] + step
            hi = mse_by_forward(rebuild(arrs), batch)
            arrs[name][ix] = base[ix] - step
            lo = mse_by_forward(rebuild(arrs), batch)
            grad[ix] = (hi - lo) / (2.0 * step)
        out[name] = grad
    return out


def assert_gradients_match(analytic, numeric, tol=1e-5):
    # The denominator floor must sit above the oracle's own noise divided by
    # the tolerance: central differences at step 1e-6 on an MSE bounded by 1
    # carry roundoff of roughly eps/(2*step) ~ 1e-10 absolute, so components
    # below 1e-5 cannot be resolved to 1e-5 relative.  A 1e-4 floor keeps
    # headroom for that noise while still comparing every meaningful
    # component (~1e-3 and larger) in genuinely relative terms.
    for name in ("w1", "b1", "w2", "b2"):
        a = getattr(analytic, name)
        n = numeric[name]
        denom = np.maximum(1e-4, np.maximum(np.abs(a), np.abs(n)))
        worst = float(np.max(np.abs(a - n) / denom))
        assert worst <= tol, f"{name} disagrees by relative {worst}"


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestOracleOnHandCases:
    """Trust the finite-difference helper before using it as the referee."""

    def test_single_weight_chain(self):
        # 1-1-1 net, x=0.3, t=1: every partial has a short closed form.
        net = tiny_net([[1.0]], [0.0], [[1.0]], [0.0])
        x = np.array([0.3])
        batch = [(x, np.array([1.0]))]
        h = sigmoid(0.3)
        y = sigmoid(h)
        dy = 2.0 * (y - 1.0) * y * (1.0 - y)
        expected = {
            "w2": np.array([[dy * h]]),
            "b2": np.array([dy]),
            "w1": np.array([[dy * 1.0 * h * (1.0 - h) * 0.3]]),
            "b1": np.array([dy * 1.0 * h * (1.0 - h)]),
        }
        numeric = numeric_gradient(net, batch)
        for name, want in expected.items():
            assert np.allclose(numeric[name], want, rtol=0, atol=1e-9)

    def test_two_sample_mean(self):
        # Two samples: the numeric gradient must equal the mean of the
        # single-sample closed forms.
        net = tiny_net([[0.5]], [0.1], [[-0.4]], [0.2])
        batch = [
            (np.array([0.0]), np.array([1.0])),
            (np.array([1.0]), np.array([1.0])),
        ]

        def single(x):
            h = sigmoid(0.5 * x + 0.1)
            y = sigmoid(-0.4 * h + 0.2)
            dy = 2.0 * (y - 1.0) * y * (1.0 - y)
            return dy * h

        want_w2 = 0.5 * (single(0.0) + single(1.0))
        numeric = numeric_gradient(net, batch)
        assert abs(numeric["w2"][0, 0] - want_w2) < 1e-9


def masked_sigmoid(z):
    """The boolean-mask sigmoid the branch-free form must reproduce."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_of(z):
    """The in-place kernel run on a copy of z, with scratch of its own."""
    buf = np.array(z, dtype=np.float64)
    got = ebp._sigmoid(buf, np.empty_like(buf))
    assert got is buf
    return got


class TestSigmoid:
    def test_matches_masked_form_bit_for_bit(self):
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0, np.nan]
        )
        rng = np.random.default_rng(17)
        for z in (special, rng.normal(0.0, 20.0, (45, 80))):
            got, want = sigmoid_of(z), masked_sigmoid(z)
            assert np.array_equal(got, want, equal_nan=True)
            # Equal values may still differ in the sign of a zero.
            num = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))

    def test_saturates_without_warnings(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = sigmoid_of([-1e308, -20.0, 20.0, 1e308])
        assert y[0] == 0.0 and y[-1] == 1.0
        assert 0.0 < y[1] < y[2] < 1.0


class TestForward:
    def test_hand_example(self):
        # All-ones weights, zero biases, x = 0: hidden 0.5, output
        # sigmoid(0.5).
        net = tiny_net([[1.0]], [0.0], [[1.0]], [0.0])
        y = ebp.forward(net, np.array([0.0]))
        assert abs(y[0] - 0.62246) < 1e-5
        assert y[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), rel=1e-15)

    def test_output_shape_and_range(self):
        net = random_net(ebp.MlpShape(4, 8, 3), seed=11)
        y = ebp.forward(net, np.full(4, 0.5))
        assert y.shape == (3,)
        assert np.all((y > 0.0) & (y < 1.0))

    def test_rejects_wrong_dimension(self):
        net = random_net(ebp.MlpShape(4, 8, 3), seed=11)
        with pytest.raises(ValueError):
            ebp.forward(net, np.zeros(5))

    @pytest.mark.parametrize(
        "raw", [[2.0, 4.5, 2.0], [0.0, -9.0, 7.0], [-0.0, 27.0, 1e-300]]
    )
    def test_scales_its_own_input(self, raw):
        identity = random_net(ebp.MlpShape(3, 6, 2), seed=11)
        net = replace(identity, feature_scaling=SCALING)
        want = ebp.forward(identity, ebp.apply_scaling(SCALING, raw))
        assert ebp.forward(net, raw).tobytes() == want.tobytes()


class TestInit:
    def test_deterministic(self):
        a = ebp.init(ebp.MlpShape(5, 10, 4), seed=7)
        b = ebp.init(ebp.MlpShape(5, 10, 4), seed=7)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_seed_changes_weights(self):
        a = ebp.init(ebp.MlpShape(5, 10, 4), seed=7)
        b = ebp.init(ebp.MlpShape(5, 10, 4), seed=8)
        assert not np.array_equal(a.w1, b.w1)

    def test_ranges_and_zero_biases(self):
        net = ebp.init(ebp.MlpShape(9, 18, 5), seed=3)
        assert np.max(np.abs(net.w1)) <= 1.0 / math.sqrt(9)
        assert np.max(np.abs(net.w2)) <= 1.0 / math.sqrt(18)
        assert np.all(net.b1 == 0.0)
        assert np.all(net.b2 == 0.0)

    def test_default_hidden(self):
        assert ebp.default_hidden(20) == 40


class TestMlpValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ebp.Mlp(
                shape=ebp.MlpShape(2, 3, 1),
                w1=np.zeros((3, 3)),
                b1=np.zeros(3),
                w2=np.zeros((1, 3)),
                b2=np.zeros(1),
                feature_scaling=((0.0, 1.0),) * 2,
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            tiny_net([[np.nan]], [0.0], [[1.0]], [0.0])

    def test_scaling_length_checked(self):
        with pytest.raises(ValueError):
            ebp.Mlp(
                shape=ebp.MlpShape(2, 3, 1),
                w1=np.zeros((3, 2)),
                b1=np.zeros(3),
                w2=np.zeros((1, 3)),
                b2=np.zeros(1),
                feature_scaling=((0.0, 1.0),),
            )

    def test_arrays_read_only(self):
        net = random_net(ebp.MlpShape(2, 4, 2), seed=1)
        with pytest.raises(ValueError):
            net.w1[0, 0] = 9.9


class TestBackpropAgainstOracle:
    def test_hand_case(self):
        net = tiny_net([[1.0]], [0.0], [[1.0]], [0.0])
        batch = [(np.array([0.3]), np.array([1.0]))]
        grad, mse = ebp.backprop_gradient(net, batch)
        h = sigmoid(0.3)
        y = sigmoid(h)
        assert mse == pytest.approx((y - 1.0) ** 2, rel=1e-15)
        assert grad.w2[0, 0] == pytest.approx(
            2.0 * (y - 1.0) * y * (1.0 - y) * h, rel=1e-12
        )
        assert_gradients_match(grad, numeric_gradient(net, batch))

    @pytest.mark.parametrize(
        "shape",
        [
            ebp.MlpShape(2, 3, 2),
            ebp.MlpShape(3, 6, 3),
            ebp.MlpShape(5, 10, 4),
            ebp.MlpShape(10, 20, 8),
        ],
    )
    def test_random_nets(self, shape):
        for trial in range(2):
            net = random_net(shape, seed=100 + trial)
            batch = random_batch(shape, n_samples=5, seed=200 + trial)
            grad, _ = ebp.backprop_gradient(net, batch)
            assert_gradients_match(grad, numeric_gradient(net, batch))

    def test_duplicated_batch_same_gradient(self):
        # MSE is a mean, so repeating every pair changes nothing.
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=5)
        batch = random_batch(shape, n_samples=4, seed=6)
        g1, m1 = ebp.backprop_gradient(net, batch)
        g2, m2 = ebp.backprop_gradient(net, batch + batch)
        assert m2 == pytest.approx(m1, rel=1e-14)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(
                getattr(g1, name), getattr(g2, name), rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("shape", [ebp.MlpShape(3, 6, 3), ebp.MlpShape(7, 14, 4)])
    def test_scaled_net_on_raw_rows(self, shape):
        identity = random_net(shape, seed=7)
        raw = random_batch(shape, n_samples=6, seed=8)
        net, pre = scaled(identity, raw)
        grad, mse = ebp.backprop_gradient(net, raw)
        want, want_mse = ebp.backprop_gradient(identity, pre)
        assert mse == want_mse
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(grad, name).tobytes() == getattr(want, name).tobytes(), name
        assert_gradients_match(grad, numeric_gradient(net, raw))

    def test_rejects_non_one_hot(self):
        shape = ebp.MlpShape(2, 4, 2)
        net = random_net(shape, seed=1)
        with pytest.raises(ValueError):
            ebp.backprop_gradient(net, [(np.zeros(2), np.array([0.5, 0.5]))])
        with pytest.raises(ValueError):
            ebp.backprop_gradient(net, [(np.zeros(2), np.array([1.0, 1.0]))])
        with pytest.raises(ValueError):
            ebp.backprop_gradient(net, [])


def toy_problem(seed=0):
    """Fifteen 3-d points in three separable clusters near one-hot corners."""
    rng = np.random.default_rng(seed)
    batch = []
    labels = []
    for c in range(3):
        for _ in range(5):
            x = 0.15 + rng.uniform(-0.05, 0.05, 3)
            x[c] += 0.7
            batch.append((x, ebp.encode_target(c, 3)))
            labels.append(c)
    return batch, labels


def replay(start, batch, cfg):
    """Reference training loop: two backprop_gradient calls per epoch and
    the published accept/reject rule, with the same stopping tests."""
    net = start
    lr = cfg.lr0
    mse_trace, lr_trace, accepted, improved = [], [], [], []
    while True:
        grad, cur = ebp.backprop_gradient(net, batch)
        if cur <= cfg.mse_goal:
            reason = "goal_met"
            break
        if len(mse_trace) >= cfg.max_epochs:
            reason = "max_epochs"
            break
        if grad.inf_norm() < cfg.min_grad:
            reason = "gradient_floor"
            break
        cand = ebp.Mlp(
            shape=net.shape,
            w1=net.w1 - lr * grad.w1,
            b1=net.b1 - lr * grad.b1,
            w2=net.w2 - lr * grad.w2,
            b2=net.b2 - lr * grad.b2,
            feature_scaling=net.feature_scaling,
        )
        _, cand_mse = ebp.backprop_gradient(cand, batch)
        lr_trace.append(lr)
        if cand_mse > cur * cfg.max_perf_inc:
            accepted.append(False)
            improved.append(False)
            mse_trace.append(cur)
            lr = lr * cfg.lr_dec
        else:
            net = cand
            accepted.append(True)
            improved.append(cand_mse < cur)
            mse_trace.append(cand_mse)
            if cand_mse < cur:
                lr = lr * cfg.lr_inc
    report = ebp.TrainReport(
        epochs_run=len(mse_trace),
        final_mse=cur,
        stop_reason=reason,
        mse_trace=tuple(mse_trace),
        lr_trace=tuple(lr_trace),
        accepted=tuple(accepted),
        improved=tuple(improved),
    )
    return net, report


# (shape, data, config overrides, stop reason, steps rejected)
REPLAY_CASES = [
    ((3, 6, 3), "toy", {"max_epochs": 120}, "max_epochs", False),
    ((10, 20, 5), "random", {"max_epochs": 150}, "max_epochs", True),
    ((40, 80, 9), "random", {"max_epochs": 150}, "max_epochs", True),
    ((3, 6, 3), "toy", {"lr0": 500.0, "max_epochs": 60}, "max_epochs", True),
    ((10, 20, 5), "random", {"min_grad": 2e-3}, "gradient_floor", False),
]
REPLAY_IDS = ["toy-3x6x3", "random-10x20x5", "random-40x80x9",
              "rejected-steps-to-cap", "gradient-floor"]


def replay_setup(case):
    """Start network, batch and config of one REPLAY_CASES entry."""
    dims, data, overrides, _, _ = case
    shape = ebp.MlpShape(*dims)
    start = random_net(shape, seed=2)
    if data == "toy":
        batch, _ = toy_problem()
    else:
        batch = random_batch(shape, n_samples=5 * shape.n_out, seed=4)
    return start, batch, ebp.TrainConfig(mse_goal=1e-12, **overrides)


class TestTraining:
    def test_traces_line_up(self):
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=2)
        batch, _ = toy_problem()
        cfg = ebp.TrainConfig(max_epochs=200, mse_goal=1e-12)
        _, report = ebp.train(net, batch, cfg)
        assert report.epochs_run == 200
        assert report.stop_reason == "max_epochs"
        assert len(report.mse_trace) == 200
        assert len(report.lr_trace) == 200
        assert report.final_mse == report.mse_trace[-1]

    def test_rate_schedule_reconstructs_exactly(self):
        # lr_trace must equal lr0 times the exact product of the per-epoch
        # factors implied by the accept/improve flags.
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=2)
        batch, _ = toy_problem()
        cfg = ebp.TrainConfig(lr0=1.5, max_epochs=300, mse_goal=1e-12)
        _, report = ebp.train(net, batch, cfg)
        lr = cfg.lr0
        for t in range(report.epochs_run):
            assert report.lr_trace[t] == lr
            if not report.accepted[t]:
                lr = lr * cfg.lr_dec
            elif report.improved[t]:
                lr = lr * cfg.lr_inc

    def test_rejected_epoch_keeps_error(self):
        # A huge starting rate forces rejections; the recorded error must
        # not move on those epochs and the rate must shrink by exactly
        # lr_dec.
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=2)
        batch, _ = toy_problem()
        cfg = ebp.TrainConfig(lr0=500.0, max_epochs=60, mse_goal=1e-12)
        _, report = ebp.train(net, batch, cfg)
        rejected = [t for t in range(report.epochs_run) if not report.accepted[t]]
        assert rejected, "expected at least one rejection at lr0=500"
        _, start_mse = ebp.backprop_gradient(net, batch)
        for t in rejected:
            prev = start_mse if t == 0 else report.mse_trace[t - 1]
            assert report.mse_trace[t] == prev
            if t + 1 < report.epochs_run:
                assert report.lr_trace[t + 1] == report.lr_trace[t] * cfg.lr_dec
            assert not report.improved[t]

    def test_improving_epoch_grows_rate(self):
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=2)
        batch, _ = toy_problem()
        cfg = ebp.TrainConfig(max_epochs=100, mse_goal=1e-12)
        _, report = ebp.train(net, batch, cfg)
        grew = 0
        for t in range(report.epochs_run - 1):
            if report.improved[t]:
                assert report.lr_trace[t + 1] == report.lr_trace[t] * cfg.lr_inc
                grew += 1
        assert grew > 0

    def test_accepted_epochs_bounded_by_ratio(self):
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=9)
        batch, _ = toy_problem(seed=4)
        cfg = ebp.TrainConfig(lr0=20.0, max_epochs=150, mse_goal=1e-12)
        _, report = ebp.train(net, batch, cfg)
        _, start_mse = ebp.backprop_gradient(net, batch)
        for t in range(report.epochs_run):
            prev = start_mse if t == 0 else report.mse_trace[t - 1]
            if report.accepted[t]:
                assert report.mse_trace[t] <= prev * cfg.max_perf_inc
            if report.improved[t]:
                assert report.mse_trace[t] < prev

    @pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
    def test_replay_reproduces_weights(self, case):
        # Re-run the published update rule step by step using only the
        # public gradient op; the final weights and every trace must match
        # bit for bit.
        start, batch, cfg = replay_setup(case)
        _, _, _, reason, rejects = case
        trained, report = ebp.train(start, batch, cfg)

        net, want = replay(start, batch, cfg)
        assert report.stop_reason == reason
        assert (not all(report.accepted)) == rejects
        assert report == want
        assert np.array_equal(net.w1, trained.w1)
        assert np.array_equal(net.b1, trained.b1)
        assert np.array_equal(net.w2, trained.w2)
        assert np.array_equal(net.b2, trained.b2)

    def test_deterministic(self):
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=2)
        batch, _ = toy_problem()
        cfg = ebp.TrainConfig(max_epochs=80, mse_goal=1e-12)
        a, ra = ebp.train(net, batch, cfg)
        b, rb = ebp.train(net, batch, cfg)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)
        assert ra == rb

    def test_stop_goal_met(self):
        shape = ebp.MlpShape(2, 4, 2)
        net = random_net(shape, seed=3)
        batch = random_batch(shape, n_samples=4, seed=3)
        _, report = ebp.train(net, batch, ebp.TrainConfig(mse_goal=0.9))
        assert report.stop_reason == "goal_met"
        assert report.epochs_run == 0
        assert report.final_mse <= 0.9

    def test_stop_gradient_floor(self):
        shape = ebp.MlpShape(2, 4, 2)
        net = random_net(shape, seed=3)
        batch = random_batch(shape, n_samples=4, seed=3)
        cfg = ebp.TrainConfig(min_grad=1e9)
        _, report = ebp.train(net, batch, cfg)
        assert report.stop_reason == "gradient_floor"
        assert report.epochs_run == 0

    def test_training_reduces_error(self):
        shape = ebp.MlpShape(3, 6, 3)
        net = random_net(shape, seed=2)
        batch, _ = toy_problem()
        cfg = ebp.TrainConfig(max_epochs=2000, mse_goal=1e-12, min_grad=0.0)
        trained, report = ebp.train(net, batch, cfg)
        _, start_mse = ebp.backprop_gradient(net, batch)
        assert report.final_mse < start_mse * 0.1
        _, recomputed = ebp.backprop_gradient(trained, batch)
        assert recomputed == report.final_mse

    def test_toy_problem_fully_learned(self):
        batch, labels = toy_problem()
        net = ebp.init(ebp.MlpShape(3, 6, 3), seed=0)
        cfg = ebp.TrainConfig(max_epochs=5000, mse_goal=1e-4)
        trained, report = ebp.train(net, batch, cfg)
        predictions = [ebp.decode(ebp.forward(trained, x)) for x, _ in batch]
        assert predictions == labels
        assert report.final_mse < 0.01


def assert_same_training(got, want):
    (net, report), (ref_net, ref_report) = got, want
    assert report == ref_report
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(net, name), getattr(ref_net, name)), name


class TestAgainstReference:
    """train against the loop it replaced (tests/ebp_reference.py), bit for
    bit: the kernels it shares with backprop_gradient cannot drift unseen."""

    @pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
    def test_replay_cases(self, case):
        start, batch, cfg = replay_setup(case)
        assert_same_training(
            ebp.train(start, batch, cfg), reference_train(start, batch, cfg)
        )

    @pytest.mark.parametrize("case", REPLAY_CASES, ids=REPLAY_IDS)
    def test_scaled_net_trains_on_raw_rows(self, case):
        # train scales the raw rows itself: a scaled net on raw rows gives
        # the reference's bits for its identity twin on prescaled rows.
        start, raw, cfg = replay_setup(case)
        net, pre = scaled(start, raw)
        got = ebp.train(net, raw, cfg)
        assert got[0].feature_scaling == net.feature_scaling
        assert_same_training(got, reference_train(start, pre, cfg))

    @pytest.mark.parametrize("n_out", [3, 5, 7, 9])
    @pytest.mark.parametrize("k", [3, 10, 20, 40])
    def test_grid_shapes(self, k, n_out):
        # The grid's networks: k inputs, 2k hidden, one output per class,
        # five training samples per class.
        shape = ebp.MlpShape(k, ebp.default_hidden(k), n_out)
        start = ebp.init(shape, seed=k * 10 + n_out)
        batch = random_batch(shape, n_samples=5 * n_out, seed=n_out)
        cfg = ebp.TrainConfig(max_epochs=150)
        got = ebp.train(start, batch, cfg)
        assert got[1].stop_reason == "max_epochs"
        assert_same_training(got, reference_train(start, batch, cfg))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property(self, data):
        shape = ebp.MlpShape(
            data.draw(st.integers(1, 4), label="n_in"),
            data.draw(st.integers(1, 6), label="n_hidden"),
            data.draw(st.integers(1, 4), label="n_out"),
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        # Inputs of +-800 saturate the sigmoid; lr0 near 500 forces rejections.
        scale = data.draw(st.sampled_from([1.0, 800.0]), label="scale")
        lr0 = data.draw(st.one_of(st.just(500.0), st.floats(0.01, 500.0)), label="lr0")
        rng = np.random.default_rng(seed)
        n_samples = data.draw(st.integers(1, 8), label="n_samples")
        xs = rng.uniform(-scale, scale, (n_samples, shape.n_in))
        labels = rng.integers(0, shape.n_out, n_samples)
        batch = [
            (x, ebp.encode_target(int(c), shape.n_out)) for x, c in zip(xs, labels)
        ]
        start = ebp.init(shape, seed)
        cfg = ebp.TrainConfig(lr0=lr0, max_epochs=data.draw(st.integers(1, 40)))

        stop = data.draw(
            st.sampled_from(["max_epochs", "goal_met", "gradient_floor"]), label="stop"
        )
        if stop != "max_epochs":
            # Place the stop inside a run the capped reference has made.
            _, capped = reference_train(start, batch, cfg)
            assume(capped.epochs_run > 0)
            j = data.draw(st.integers(0, capped.epochs_run - 1), label="stop_epoch")
            if stop == "goal_met":
                assume(capped.mse_trace[j] > 0.0)
                cfg = replace(cfg, mse_goal=capped.mse_trace[j])
            else:
                at_j = start
                if j:
                    at_j, _ = reference_train(start, batch, replace(cfg, max_epochs=j))
                norm = reference_gradient_norm(at_j, batch)
                assume(math.isfinite(norm))
                cfg = replace(cfg, min_grad=float(np.nextafter(norm, np.inf)))

        got = ebp.train(start, batch, cfg)
        assert_same_training(got, reference_train(start, batch, cfg))
        if stop != "max_epochs":
            assert got[1].stop_reason == stop


class TestDecodeEncode:
    def test_argmax(self):
        assert ebp.decode(np.array([0.1, 0.9, 0.3])) == 1

    def test_tie_goes_to_lowest_index(self):
        assert ebp.decode(np.array([0.3, 0.7, 0.7])) == 1
        assert ebp.decode(np.array([0.5, 0.5])) == 0

    def test_round_trip(self):
        for i in range(5):
            assert ebp.decode(ebp.encode_target(i, 5)) == i

    def test_encode_validates(self):
        with pytest.raises(ValueError):
            ebp.encode_target(5, 5)
        with pytest.raises(ValueError):
            ebp.encode_target(-1, 5)


class TestFeatureScaling:
    def test_fit_and_apply(self):
        feats = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaling = ebp.fit_scaling(feats)
        assert scaling == ((0.0, 10.0), (10.0, 30.0))
        scaled = ebp.apply_scaling(scaling, np.array([5.0, 20.0]))
        assert np.allclose(scaled, [0.5, 0.5])

    def test_training_rows_land_in_unit_box(self):
        rng = np.random.default_rng(12)
        feats = rng.uniform(-50.0, 90.0, (20, 6))
        scaling = ebp.fit_scaling(feats)
        scaled = ebp.apply_scaling(scaling, feats)
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0

    def test_constant_dimension_maps_to_zero(self):
        scaling = ebp.fit_scaling(np.array([[2.0, 1.0], [2.0, 3.0]]))
        scaled = ebp.apply_scaling(scaling, np.array([2.0, 2.0]))
        assert scaled[0] == 0.0
        assert scaled[1] == 0.5

    def test_out_of_range_not_clipped(self):
        scaling = ((0.0, 10.0),)
        assert ebp.apply_scaling(scaling, np.array([15.0]))[0] == 1.5
        assert ebp.apply_scaling(scaling, np.array([-5.0]))[0] == -0.5

    def test_identity_is_exact(self):
        # (x - 0.0) / 1.0 is x for every finite x, so an init net, whose
        # scaling is the identity, sees its input bits unchanged.
        x = np.array([-0.0, 0.0, 5e-324, -1e-300, 0.1, 1e300, -np.finfo(float).max])
        scaling = ebp.init(ebp.MlpShape(x.size, 2, 2), seed=0).feature_scaling
        assert ebp.apply_scaling(scaling, x).tobytes() == x.tobytes()

    def test_attach_scaling(self):
        net = ebp.init(ebp.MlpShape(2, 4, 2), seed=0)
        out = replace(net, feature_scaling=[(1.0, 3.0), (0.0, 9.0)])
        assert out.feature_scaling == ((1.0, 3.0), (0.0, 9.0))
        assert np.array_equal(out.w1, net.w1)


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        shape = ebp.MlpShape(4, 8, 3)
        net = ebp.init(shape, seed=42)
        rng = np.random.default_rng(0)
        net = replace(net, feature_scaling=ebp.fit_scaling(rng.uniform(0, 7, (10, 4))))
        path = tmp_path / "model.txt"
        ebp.save_model(path, net)
        back = ebp.load_model(path)
        assert back.shape == net.shape
        assert back.feature_scaling == net.feature_scaling
        assert np.array_equal(back.w1, net.w1)
        assert np.array_equal(back.b1, net.b1)
        assert np.array_equal(back.w2, net.w2)
        assert np.array_equal(back.b2, net.b2)

    def test_trained_net_round_trip(self, tmp_path):
        batch, _ = toy_problem()
        net = ebp.init(ebp.MlpShape(3, 6, 3), seed=0)
        trained, _ = ebp.train(net, batch, ebp.TrainConfig(max_epochs=50, mse_goal=1e-12))
        path = tmp_path / "model.txt"
        ebp.save_model(path, trained)
        back = ebp.load_model(path)
        x = np.array([0.4, 0.2, 0.9])
        assert np.array_equal(ebp.forward(back, x), ebp.forward(trained, x))

    def test_header_checked(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not a model\n")
        with pytest.raises(ebp.ModelFormatError):
            ebp.load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = ebp.init(ebp.MlpShape(2, 4, 2), seed=1)
        path = tmp_path / "model.txt"
        ebp.save_model(path, net)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ebp.ModelFormatError):
            ebp.load_model(path)

    def test_trailing_content_rejected(self, tmp_path):
        net = ebp.init(ebp.MlpShape(2, 4, 2), seed=1)
        path = tmp_path / "model.txt"
        ebp.save_model(path, net)
        path.write_text(path.read_text() + "extra junk\n")
        with pytest.raises(ebp.ModelFormatError):
            ebp.load_model(path)

    @pytest.mark.parametrize(
        "section, replacement",
        [
            ("w1", "bogus"),
            ("scale 0", "scale 0 abc 1"),
            ("shape", "shape 0 1 1"),
            ("w1", "nan"),
            ("scale 0", "scale 0 nan 1"),
            ("scale 0", "scale 0 1 inf"),
        ],
        ids=["weight", "scale", "shape", "weight_nan", "scale_nan", "scale_inf"],
    )
    def test_bad_value_rejected(self, tmp_path, section, replacement):
        net = ebp.init(ebp.MlpShape(2, 4, 2), seed=1)
        path = tmp_path / "model.txt"
        ebp.save_model(path, net)
        text = path.read_text().splitlines()
        if section == "w1":
            i = text.index("w1") + 1
            text[i] = " ".join([replacement] + text[i].split()[1:])
        else:
            i = next(n for n, line in enumerate(text) if line.startswith(section + " "))
            text[i] = replacement
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ebp.ModelFormatError, match=f"line {i + 1}"):
            ebp.load_model(path)

    @pytest.mark.parametrize(
        "token, message",
        [
            ("bogus", "line 6: could not convert string to float: 'bogus'"),
            ("nan", "line 6: non-finite value"),
        ],
        ids=["bogus", "nan"],
    )
    def test_bad_value_message(self, tmp_path, token, message):
        # Line 6 is the first w1 row of a 2-4-2 model.
        path = tmp_path / "model.txt"
        ebp.save_model(path, ebp.init(ebp.MlpShape(2, 4, 2), seed=1))
        text = path.read_text().splitlines()
        assert text[4] == "w1"
        text[5] = " ".join([token] + text[5].split()[1:])
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ebp.ModelFormatError) as info:
            ebp.load_model(path)
        assert str(info.value) == f"{path}: {message}"

    def test_inverted_scale_rejected(self, tmp_path):
        # lo == hi marks a dimension constant in training; lo > hi is no range.
        net = ebp.init(ebp.MlpShape(2, 4, 2), seed=1)
        with pytest.raises(ValueError, match="minimum exceeds"):
            replace(net, feature_scaling=((2.0, 1.0), (0.0, 1.0)))
        path = tmp_path / "model.txt"
        ebp.save_model(path, replace(net, feature_scaling=((2.0, 2.0), (0.0, 1.0))))
        assert ebp.load_model(path).feature_scaling == ((2.0, 2.0), (0.0, 1.0))
        path.write_text(path.read_text().replace("scale 0 2 2\n", "scale 0 2 1\n"))
        with pytest.raises(ebp.ModelFormatError) as info:
            ebp.load_model(path)
        assert str(info.value) == f"{path}: line 3: scale minimum exceeds maximum"

    def test_non_ascii_byte_rejected(self, tmp_path):
        net = ebp.init(ebp.MlpShape(2, 4, 2), seed=1)
        path = tmp_path / "model.txt"
        ebp.save_model(path, net)
        data = path.read_bytes()
        i = data.index(b"w1\n") + 3
        path.write_bytes(data[:i] + b"\xff" + data[i:])
        line = data[:i].count(b"\n") + 1
        with pytest.raises(ebp.ModelFormatError, match=f"model.txt: line {line}: "):
            ebp.load_model(path)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr0": 0.0},
            {"lr_inc": 1.0},
            {"lr_dec": 1.0},
            {"lr_dec": 0.0},
            {"max_perf_inc": 0.9},
            {"max_epochs": 0},
            {"mse_goal": 0.0},
            {"min_grad": -1.0},
            {"seed": -3},
        ],
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ebp.TrainConfig(**kwargs)
