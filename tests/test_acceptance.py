"""Acceptance suite: eight criteria, one test (and one pass/fail line under
``pytest -v``) per criterion.

Every criterion is checked at its stated tolerance against an independent
oracle where one exists: a two-sided Jacobi eigensolver on the Gram matrix
for singular values, central finite differences for gradients, and the
generator's ground-truth manifest for segmentation.
"""

import time

import numpy as np
import pytest

from eig_oracle import singular_values_via_gram
from test_ebp import assert_gradients_match, numeric_gradient, toy_problem

from irisvd import cli, ebp, harness
from irisvd.segmentation import label_components_8, pupil_geometry, threshold_dark
from irisvd.image_io import read_pgm_file
from irisvd.iris_boundary import iris_bounds
from irisvd.svd import Matrix, svd_factorize
from irisvd.synth import generate_dataset


@pytest.fixture(scope="module")
def eye_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_eyes")
    generate_dataset(9, samples_per_class=7, base_seed=0, out_dir=out)
    return out


@pytest.fixture(scope="module")
def eye_dataset(eye_dataset_dir):
    return harness.load_dataset(eye_dataset_dir)


@pytest.fixture(scope="module")
def toy_run():
    """The criterion-4 training run, shared with the criterion-3 audit."""
    batch, labels = toy_problem()
    start = ebp.init(ebp.MlpShape(3, 6, 3), seed=0)
    cfg = ebp.TrainConfig(lr0=0.2, mse_goal=5e-7, max_epochs=5000)
    t0 = time.perf_counter()
    trained, report = ebp.train(start, batch, cfg)
    elapsed = time.perf_counter() - t0
    return start, trained, report, cfg, batch, labels, elapsed


def test_criterion_1_svd_matches_oracle():
    # 200 random matrices up to 60x40: singular values within 1e-8 relative
    # of the Gram-matrix eigensolver; reconstruction and orthogonality
    # residuals at or below 1e-10.  Under 10 seconds.
    rng = np.random.default_rng(20210)
    t0 = time.perf_counter()
    for trial in range(200):
        rows = int(rng.integers(1, 61))
        cols = int(rng.integers(1, 41))
        scale = 10.0 ** rng.integers(-2, 3)
        a = rng.normal(0.0, scale, (rows, cols))
        m = Matrix(entries=a)
        f = svd_factorize(m)

        oracle = singular_values_via_gram(a)
        ref = max(1.0, float(f.s[0]) if f.s.size else 1.0)
        assert np.max(np.abs(f.s - oracle)) <= 1e-8 * ref, f"trial {trial}"

        recon = f.reconstruct()
        denom = max(1.0, float(np.linalg.norm(m.entries)))
        assert np.linalg.norm(recon - m.entries) / denom <= 1e-10
        n = f.n
        assert np.linalg.norm(f.u.T @ f.u - np.eye(n)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_backprop_matches_finite_differences():
    # 50 random nets up to (10, 20, 8): analytic gradient within 1e-5
    # relative of central differences at step 1e-6.  Under 10 seconds.
    rng = np.random.default_rng(20220)
    t0 = time.perf_counter()
    for trial in range(50):
        shape = ebp.MlpShape(
            n_in=int(rng.integers(2, 11)),
            n_hidden=int(rng.integers(2, 21)),
            n_out=int(rng.integers(2, 9)),
        )
        net = ebp.init(shape, seed=int(rng.integers(0, 2**31)))
        n_samples = int(rng.integers(3, 6))
        xs = rng.uniform(0.0, 1.0, (n_samples, shape.n_in))
        labels = rng.integers(0, shape.n_out, n_samples)
        batch = [
            (xs[i], ebp.encode_target(int(labels[i]), shape.n_out))
            for i in range(n_samples)
        ]
        grad, _ = ebp.backprop_gradient(net, batch)
        assert_gradients_match(grad, numeric_gradient(net, batch, step=1e-6), tol=1e-5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_adaptive_rate_contract(toy_run):
    # On the criterion-4 trace: the rate after an accepted improving epoch
    # is exactly 1.05x the previous rate, and rejected epochs keep the
    # weights bit-identical (verified by replaying the update rule).
    start, trained, report, cfg, batch, _, _ = toy_run

    for t in range(report.epochs_run - 1):
        if report.improved[t]:
            assert report.lr_trace[t + 1] == report.lr_trace[t] * 1.05
        elif not report.accepted[t]:
            assert report.lr_trace[t + 1] == report.lr_trace[t] * cfg.lr_dec

    def replay(net, config, audit_rejections):
        lr = config.lr0
        while True:
            grad, cur = ebp.backprop_gradient(net, batch)
            if cur <= config.mse_goal:
                return net
            if grad.inf_norm() < config.min_grad:
                return net
            cand = ebp.Mlp(
                shape=net.shape,
                w1=net.w1 - lr * grad.w1,
                b1=net.b1 - lr * grad.b1,
                w2=net.w2 - lr * grad.w2,
                b2=net.b2 - lr * grad.b2,
                feature_scaling=net.feature_scaling,
            )
            _, cand_mse = ebp.backprop_gradient(cand, batch)
            if cand_mse > cur * config.max_perf_inc:
                before = (net.w1, net.b1, net.w2, net.b2)
                lr = lr * config.lr_dec
                audit_rejections.append(
                    all(np.array_equal(a, b) for a, b in
                        zip(before, (net.w1, net.b1, net.w2, net.b2)))
                )
            else:
                net = cand
                if cand_mse < cur:
                    lr = lr * config.lr_inc

    rejections = []
    replayed = replay(start, cfg, rejections)
    assert np.array_equal(replayed.w1, trained.w1)
    assert np.array_equal(replayed.b1, trained.b1)
    assert np.array_equal(replayed.w2, trained.w2)
    assert np.array_equal(replayed.b2, trained.b2)
    assert all(rejections)

    # Force the rejection branch with an oversized starting rate so the
    # rejected-epoch clause is exercised even if the toy run never rejects.
    hot = ebp.TrainConfig(lr0=500.0, max_epochs=40, mse_goal=1e-12)
    _, hot_report = ebp.train(start, batch, hot)
    rejected = [t for t in range(hot_report.epochs_run) if not hot_report.accepted[t]]
    assert rejected
    _, start_mse = ebp.backprop_gradient(start, batch)
    for t in rejected:
        prev = start_mse if t == 0 else hot_report.mse_trace[t - 1]
        assert hot_report.mse_trace[t] == prev


def test_criterion_4_toy_convergence(toy_run):
    # 15 separable samples, k=3, hidden 6, lr0 0.2: 100% training accuracy
    # within 5000 epochs.  Under 30 seconds.
    _, trained, report, _, batch, labels, elapsed = toy_run
    assert report.epochs_run <= 5000
    predictions = [ebp.decode(ebp.forward(trained, x)) for x, _ in batch]
    assert predictions == labels
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_segmentation_matches_ground_truth(tmp_path_factory):
    # 50 synthetic eyes with noise and eyelashes: centroid within 2 px,
    # radii within 10%, iris bounds within 5 px of the manifest; eyelashes
    # never survive the area filter.  Under 30 seconds.
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("truth_eyes")
    files = generate_dataset(10, samples_per_class=5, base_seed=105, out_dir=out)
    assert len(files) == 50

    truth = {}
    manifest = (out / "manifest.csv").read_text().splitlines()
    for line in manifest[1:]:
        name, _, x_cp, y_cp, r_p, r_i = line.split(",")
        truth[name] = (float(x_cp), float(y_cp), float(r_p), float(r_i))

    for path in files:
        x_true, y_true, rp_true, ri_true = truth[path.name]
        img = read_pgm_file(path)
        mask = threshold_dark(img)
        survivors = [r for r in label_components_8(mask) if r.area >= 2500]
        assert len(survivors) == 1, f"{path.name}: eyelash survived the filter"
        pupil = pupil_geometry(mask)
        assert np.hypot(pupil.x_cp - x_true, pupil.y_cp - y_true) <= 2.0, path.name
        assert abs(pupil.r_x - rp_true) <= 0.1 * rp_true, path.name
        assert abs(pupil.r_y - rp_true) <= 0.1 * rp_true, path.name
        bounds = iris_bounds(img, pupil)
        assert abs(bounds.left_x - round(x_true - ri_true)) <= 5, path.name
        assert abs(bounds.right_x - round(x_true + ri_true)) <= 5, path.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_6_end_to_end_recognition(eye_dataset):
    # First 5 classes, 7 samples each, 5/2 split, k=20, 8000-epoch cap:
    # test classification rate at least 0.8.  Under 2 minutes.
    t0 = time.perf_counter()
    grid = harness.GridConfig(class_counts=(5,), dims=(20,), base_seed=0, epoch_cap=8000)
    cells = harness.run_experiment(eye_dataset, grid, ebp.TrainConfig())
    elapsed = time.perf_counter() - t0
    assert len(cells) == 1
    cell = cells[0]
    assert cell.error is None, cell.error
    assert cell.rate >= 0.8, f"rate {cell.rate}"
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_7_dimension_trend(eye_dataset):
    # Same dataset: rate at k=20 is at least the rate at k=3 for every
    # class count from 3 through 9.  Under 10 minutes.
    t0 = time.perf_counter()
    grid = harness.GridConfig(
        class_counts=(3, 4, 5, 6, 7, 8, 9), dims=(3, 20), base_seed=0, epoch_cap=8000
    )
    cells = harness.run_experiment(eye_dataset, grid, ebp.TrainConfig())
    elapsed = time.perf_counter() - t0
    rates = {(c.classes, c.dim): c.rate for c in cells}
    assert all(cell.error is None for cell in cells)
    for count in range(3, 10):
        assert rates[(count, 20)] >= rates[(count, 3)], (
            f"{count} classes: k=20 rate {rates[(count, 20)]} "
            f"below k=3 rate {rates[(count, 3)]}"
        )
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_experiment_determinism(eye_dataset_dir, tmp_path, capsys):
    # Two command-line experiment runs with the same seed and data produce
    # byte-identical CSV reports.
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli.main(
            [
                "experiment",
                "--data", str(eye_dataset_dir),
                "--classes", "3,4",
                "--dims", "3,10",
                "--epochs", "800",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == out.read_text()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
