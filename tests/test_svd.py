"""Tests for the from-scratch SVD, checked against an independent eigensolver.

The oracle (tests/eig_oracle.py) is exercised first on hand-computed cases;
only then is it trusted to judge svd_factorize.
"""

from __future__ import annotations

import contextlib
import gc
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svd_reference
from eig_oracle import jacobi_eigh, singular_values_via_gram
from eyes import render_eye
from irisvd import harness, svd
from irisvd.image_io import GrayImage, write_pgm_file
from irisvd.svd import Matrix, SvdFactorization, svd_factorize, svd_spectra
from irisvd.synth import EyeSpec, class_seed_for
from irisvd.template import TemplateExtractionError, extract_iris_basis
from svd_reference import reference_factorize, stacked_factorize
from test_cli import load_perfbench


class TestEigOracle:
    """Hand-verified cases come first; the oracle earns trust here."""

    def test_2x2_hand_case(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors along
        # (1,1)/sqrt(2) and (1,-1)/sqrt(2)
        vals, vecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(vecs[:, 0]), [np.sqrt(0.5)] * 2, atol=1e-12)

    def test_2x2_already_diagonal(self):
        vals, _ = jacobi_eigh(np.diag([5.0, -2.0]))
        assert np.allclose(vals, [5.0, -2.0])

    def test_3x3_hand_case(self):
        # block diag of 2 and [[3,4],[4,9]]; the 2x2 block has trace 12 and
        # determinant 11, so eigenvalues 11 and 1
        g = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 4.0], [0.0, 4.0, 9.0]])
        vals, vecs = jacobi_eigh(g)
        assert np.allclose(vals, [11.0, 2.0, 1.0], atol=1e-12)
        for i in range(3):
            assert np.allclose(g @ vecs[:, i], vals[i] * vecs[:, i], atol=1e-10)

    def test_eigvector_orthogonality_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            a = rng.uniform(-1, 1, (n, n))
            g = a + a.T
            vals, vecs = jacobi_eigh(g)
            assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
            assert np.allclose(g @ vecs, vecs * vals, atol=1e-9)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_cross_check_against_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(-1, 1, (15, 15))
            g = a + a.T
            vals, _ = jacobi_eigh(g)
            ref = np.sort(np.linalg.eigvalsh(g))[::-1]
            assert np.allclose(vals, ref, atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMatrixIntake:
    def test_tall_kept(self):
        m = Matrix(np.zeros((5, 3)))
        assert (m.m, m.n) == (5, 3)

    def test_wide_transposed(self):
        m = Matrix(np.arange(6.0).reshape(2, 3))
        assert (m.m, m.n) == (3, 2)
        assert m.entries[2, 1] == 5.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Matrix(np.array([[1.0, np.nan]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Matrix(np.zeros(4))

    @pytest.mark.parametrize(
        "shape", [(3, 8), (4, 9), (5, 40), (20, 40), (7, 30), (40, 40)], ids="{0[0]}x{0[1]}".format
    )
    def test_spectrum_depends_on_values_alone(self, shape):
        # C-, F-ordered and transposed input give the same bytes, and so
        # does svd_spectra on the tall C-ordered copy.  A square matrix's
        # transpose is another matrix, so it has no transposed input.
        for seed in range(3):
            x = np.random.default_rng([seed, *shape]).standard_normal(shape)
            inputs = [x, np.asfortranarray(x)]
            if shape[0] != shape[1]:
                inputs.append(x.T.copy())
            got = {svd_factorize(Matrix(a)).s.tobytes() for a in inputs}
            tall = np.ascontiguousarray(Matrix(x).entries)
            assert got == {svd_spectra(tall[None])[0].tobytes()}, seed


def check_invariants(a: Matrix, f: SvdFactorization):
    n = f.n
    assert np.all(np.diff(f.s) <= 0.0) and f.s.min() >= 0.0
    assert np.max(np.abs(f.u.T @ f.u - np.eye(n))) <= 1e-10
    assert np.max(np.abs(f.v.T @ f.v - np.eye(n))) <= 1e-10
    scale = max(1.0, float(np.linalg.norm(a.entries)))
    assert np.linalg.norm(a.entries - f.reconstruct()) <= 1e-10 * scale


class TestSvdFactorize:
    def test_identity(self):
        f = svd_factorize(Matrix(np.eye(4)))
        assert np.allclose(f.s, [1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        f = svd_factorize(Matrix(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(f.s, [3.0, 2.0, 1.0], atol=1e-12)

    def test_invariants_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            a = Matrix(rng.uniform(-1, 1, (m, n)))
            check_invariants(a, svd_factorize(a))

    def test_matches_eig_oracle_40x40(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            raw = rng.uniform(-1, 1, (40, 40))
            f = svd_factorize(Matrix(raw))
            ref = singular_values_via_gram(raw)
            assert np.max(np.abs(f.s - ref)) <= 1e-8 * max(1.0, f.s[0])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (12, 8))
        s1 = svd_factorize(Matrix(a)).s
        s2 = svd_factorize(Matrix(7.3 * a)).s
        assert np.max(np.abs(s2 - 7.3 * s1)) <= 1e-10 * max(1.0, s2[0])

    @pytest.mark.parametrize("scale", [1e80, 1e-80, 1e160, 1e-160, 1e300, 1e-300])
    def test_extreme_scales(self, scale):
        # Entries this large or small overflow or underflow app * aqq, a
        # fourth power, unless the intake scales them; warnings are errors.
        a = np.random.default_rng(50).standard_normal((10, 10))
        want = svd_factorize(Matrix(a)).s * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = svd_factorize(Matrix(a * scale))
            [row] = svd_spectra((a * scale)[None])
            recon = f.reconstruct()
        for s in (f.s, row):
            assert np.max(np.abs(s - want)) <= 1e-12 * want[0]
        # Divided back, as the norm's sum of squares would overflow too.
        assert np.linalg.norm(recon / scale - a) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(10)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(10)) <= 1e-10

    def test_tiny_entry_keeps_its_value(self):
        # Its square underflows to 0 unless the intake scales it.
        a = np.array([[1.28e-279]])
        assert svd_factorize(Matrix(a)).s.tolist() == [1.28e-279]
        assert svd_spectra(a[None]).tolist() == [[1.28e-279]]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (10, 6))
        perm = rng.permutation(10)
        s1 = svd_factorize(Matrix(a)).s
        s2 = svd_factorize(Matrix(a[perm])).s
        assert np.max(np.abs(s1 - s2)) <= 1e-10 * max(1.0, s1[0])

    def test_duplicate_column_rank_deficiency(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, (10, 5))
        dup = np.column_stack([a, a[:, 2]])
        f = svd_factorize(Matrix(dup))
        assert f.s[-1] <= 1e-10 * np.linalg.norm(dup)
        check_invariants(Matrix(dup), f)

    def test_zero_matrix(self):
        a = Matrix(np.zeros((5, 3)))
        f = svd_factorize(a)
        assert np.all(f.s == 0.0)
        check_invariants(a, f)

    def test_wide_input_factorizes_oriented(self):
        rng = np.random.default_rng(10)
        raw = rng.uniform(-1, 1, (3, 7))
        a = Matrix(raw)
        f = svd_factorize(a)
        check_invariants(a, f)
        ref = singular_values_via_gram(raw)
        assert np.max(np.abs(f.s - ref[: f.n])) <= 1e-8 * max(1.0, f.s[0])

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (9, 9))
        f1 = svd_factorize(Matrix(a))
        f2 = svd_factorize(Matrix(a))
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)

    def test_sign_convention(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.uniform(-1, 1, (6, 4))
            f = svd_factorize(Matrix(a))
            for j in range(f.n):
                col = f.v[:, j]
                assert col[np.argmax(np.abs(col))] >= 0.0

    def test_template_spectrum(self):
        img, pupil, bounds = render_eye(EyeSpec(class_seed=4, sample_seed=1))
        t = extract_iris_basis(img, pupil, bounds)
        f = svd_factorize(Matrix(t))
        assert f.n == 40
        ref = singular_values_via_gram(t)
        assert np.max(np.abs(f.s - ref)) <= 1e-8 * max(1.0, f.s[0])

    @pytest.mark.parametrize("swap", [False, True], ids=["as_given", "swapped"])
    @pytest.mark.parametrize("scale", [1.0, 2.0**-300, 2.0**600], ids=["1", "2^-300", "2^600"])
    def test_vanishing_column_pair_does_not_overflow(self, scale, swap):
        # tau * tau overflows for this pair, which must still be rotated: s2
        # is eps, where skipping the pair leaves sqrt(2) eps.  The intake
        # rescales each scale exactly; warnings are errors.
        eps = 1e-155
        raw = np.array([[1.0, eps], [0.0, eps], [0.0, 0.0]])[:, ::-1 if swap else 1] * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = svd_factorize(Matrix(raw))
            [row] = svd_spectra(raw[None])
            # Divided back, as the norm's sum of squares would overflow at 2^600.
            check_invariants(Matrix(raw / scale), SvdFactorization(f.u, f.s / scale, f.v))
        for s in (f.s, row):
            np.testing.assert_allclose(s, np.array([1.0, eps]) * scale, rtol=1e-13)


def _intake_scaled(a: Matrix) -> tuple[Matrix, int]:
    """a times 2^-e, e the binary exponent of its largest magnitude, and e.

    svd sweeps this exactly scaled matrix and scales s back by 2^e, so a
    reference loop given it sweeps the same numbers.  For most inputs,
    templates included, the scaling changes no bit of s."""
    e = int(np.frexp(np.abs(a.entries).max())[1])
    return Matrix(np.ldexp(a.entries, -e)), e


def assert_same_as_reference(a: Matrix) -> SvdFactorization:
    scaled, e = _intake_scaled(a)
    got, want = svd_factorize(a), reference_factorize(scaled)
    assert got.s.tobytes() == np.ldexp(want.s, e).tobytes()
    # array_equal ignores the sign of a zero, the one thing allowed to differ.
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.v, want.v)
    return got


def _rank_deficient(s: np.ndarray) -> bool:
    return bool(s[-1] <= s[0] * 1e-13)


def _uniform(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1, 1, shape)


_COLUMNS = _uniform(9, 10, 5)
_MATRICES = [
    np.zeros((5, 3)),
    np.column_stack([_COLUMNS, _COLUMNS[:, 2]]),
    np.array([[1.0, 1e-155], [0.0, 1e-155], [0.0, 0.0]]),
    _uniform(20, 40, 40),
    _uniform(21, 40, 5) @ _uniform(22, 5, 40),
    _uniform(23, 7, 3),
    _uniform(24, 11, 5),
    _uniform(25, 9, 9),
    _uniform(26, 3, 8),
    _uniform(27, 4, 2) @ _uniform(28, 2, 9),
]
_MATRIX_IDS = [
    "zero", "duplicate_column", "vanishing_pair", "random_40x40",
    "rank5_40x40", "odd_7x3", "odd_11x5", "square_9x9", "wide_3x8",
    "wide_rank2_4x9",
]
_ENTRIES = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)
_SMALL_MATRICES = arrays(
    np.float64, st.tuples(st.integers(1, 7), st.integers(1, 7)), elements=_ENTRIES
)


def _tight_crop_template(tmp_path) -> np.ndarray:
    """The template of an eye cropped close around its iris."""
    img, _, _ = render_eye(EyeSpec(class_seed=class_seed_for(0, 1), sample_seed=2))
    path = tmp_path / "crop.pgm"
    write_pgm_file(path, GrayImage(pixels=img.pixels[91:218, 39:247]))
    img, _, pupil, bounds = harness.segment_eye(path, harness.PipelineConfig())
    return extract_iris_basis(img, pupil, bounds)


class TestSameBitsAsReference:
    """The stacked W-over-V round reproduces the reference loop exactly."""

    def test_templates(self):
        # Classes 3 and 4 of synth seed 0: 6 of these 14 templates are
        # rank-deficient, so the stand-in U columns are covered too.
        deficient = 0
        for cls in (3, 4):
            for sample in range(1, 8):
                spec = EyeSpec(class_seed=class_seed_for(0, cls), sample_seed=sample)
                a = Matrix(extract_iris_basis(*render_eye(spec)))
                deficient += _rank_deficient(assert_same_as_reference(a).s)
        assert deficient == 6

    def test_tight_crop_template(self, tmp_path):
        a = Matrix(_tight_crop_template(tmp_path))
        assert _rank_deficient(assert_same_as_reference(a).s)

    @pytest.mark.parametrize("raw", _MATRICES, ids=_MATRIX_IDS)
    def test_matrices(self, raw):
        assert_same_as_reference(Matrix(raw))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_SMALL_MATRICES)
    def test_small_matrices(self, raw):
        assert_same_as_reference(Matrix(raw))


def assert_same_bytes_as_stacked(a: Matrix) -> SvdFactorization:
    scaled, e = _intake_scaled(a)
    got, want = svd_factorize(a), stacked_factorize(scaled)
    assert got.s.tobytes() == np.ldexp(want.s, e).tobytes()
    for name in ("u", "v"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    return got


def _count_sweeps(monkeypatch, module, name: str) -> list[int]:
    """Patch module.name, a round schedule, to count the sweeps that use it."""
    sweeps = [0]

    class Rounds(list):
        def __iter__(self):
            sweeps[0] += 1
            return super().__iter__()

    schedule = getattr(module, name)
    monkeypatch.setattr(module, name, lambda n: Rounds(schedule(n)))
    return sweeps


class TestSameBytesAsStackedLoop:
    """One gather and one scatter per round reproduce the stacked W-over-V
    loop that gathered p and q apart, signs of zeros included."""

    def test_templates_and_sweeps(self, monkeypatch):
        # The values take as many sweeps as the stacked loop, counted before
        # u and v are read.
        new = _count_sweeps(monkeypatch, svd, "_round_robin_pairs")
        old = _count_sweeps(monkeypatch, svd_reference, "stacked_pairs")
        swept = 0
        for cls in (3, 4):
            for sample in range(1, 8):
                spec = EyeSpec(class_seed=class_seed_for(0, cls), sample_seed=sample)
                a = Matrix(extract_iris_basis(*render_eye(spec)))
                new[0] = old[0] = 0
                svd_factorize(a)
                values = new[0]
                assert_same_bytes_as_stacked(a)
                assert values == old[0], (cls, sample)
                swept += values
        assert swept > 14 * 9

    def test_tight_crop_template(self, tmp_path):
        a = Matrix(_tight_crop_template(tmp_path))
        assert _rank_deficient(assert_same_bytes_as_stacked(a).s)

    def test_degraded_templates(self, tmp_path):
        # 12 eyes of the degraded recipe (12 eyelashes, noise 12, a bright
        # spot): a third whole, the others cut into the iris band on the left
        # or on the right.
        for i in range(12):
            spec = EyeSpec(class_seed_for(0, 1 + i % 9), 1 + i // 9, eyelash_count=12,
                           noise_amplitude=12, bright_spot=True)
            img, pupil, bounds = render_eye(spec)
            depth = (pupil.r_x + (bounds.right_x - bounds.left_x) / 2) / 2
            pixels = img.pixels
            if i % 3 == 1:
                pixels = pixels[:, round(pupil.x_cp - depth):]
            elif i % 3 == 2:
                pixels = pixels[:, : round(pupil.x_cp + depth) + 1]
            path = tmp_path / f"degraded{i}.pgm"
            write_pgm_file(path, GrayImage(pixels=pixels))
            img, _, pupil, bounds = harness.segment_eye(path, harness.PipelineConfig())
            assert_same_bytes_as_stacked(Matrix(extract_iris_basis(img, pupil, bounds)))

    @pytest.mark.parametrize("raw", _MATRICES, ids=_MATRIX_IDS)
    def test_matrices(self, raw):
        assert_same_bytes_as_stacked(Matrix(raw))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_SMALL_MATRICES)
    def test_small_matrices(self, raw):
        assert_same_bytes_as_stacked(Matrix(raw))


def assert_rows_are_factorize_spectra(stack: np.ndarray) -> np.ndarray:
    """Each row is svd_factorize's s and, since both run svd._sweep, also
    the s of the stacked reference loop, which shares no code with it."""
    got = svd_spectra(stack)
    assert got.shape == (stack.shape[0], stack.shape[2])
    for row, a in zip(got, stack):
        assert row.tobytes() == svd_factorize(Matrix(a)).s.tobytes()
        scaled, e = _intake_scaled(Matrix(a))
        assert row.tobytes() == np.ldexp(stacked_factorize(scaled).s, e).tobytes()
    return got


_NAN_3X2 = [[1.0, np.nan], [0.0, 1.0], [2.0, 0.0]]
_INF_3X2 = [[1.0, np.inf], [0.0, 1.0], [2.0, 0.0]]


@st.composite
def _tall_stacks(draw):
    """1-7 tall matrices of one shape, some with a duplicated or a zero column."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(n, 9))
    b = draw(st.integers(1, 7))
    stack = draw(arrays(np.float64, (b, m, n), elements=_ENTRIES))
    for a in stack:
        if n > 1 and draw(st.booleans()):
            a[:, draw(st.integers(0, n - 1))] = a[:, draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            a[:, draw(st.integers(0, n - 1))] = 0.0
    return stack


def _benchmark_degraded_eyes(seed: int, out: Path) -> list[Path]:
    """The degraded eyes of the benchmark's segment_degraded workload, built
    by perfbench/run.py itself: a third whole, the rest cropped on one side."""
    bench = load_perfbench("run.py")

    class Client:
        def request(self, name, kind):
            return contextlib.nullcontext()

        def setup_call(self, argv):
            return ""

    workload = bench.SegmentDegraded(Client(), seed, out)
    workload.build(out)
    return [Path(argv[-1]) for argv in workload.items()]


class TestSpectraStack:
    """Each row of svd_spectra is svd_factorize's spectrum, byte for byte."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_tall_stacks())
    def test_small_stacks(self, stack):
        assert_rows_are_factorize_spectra(stack)

    @pytest.mark.parametrize(
        "raw",
        [m for m in _MATRICES if m.shape[0] >= m.shape[1]],
        ids=[i for i, m in zip(_MATRIX_IDS, _MATRICES) if m.shape[0] >= m.shape[1]],
    )
    def test_matrices_alone(self, raw):
        assert_rows_are_factorize_spectra(raw[None])

    def test_vanishing_pair_beside_a_rotating_matrix(self, monkeypatch):
        # tau * tau would overflow for the first matrix's pair while the
        # second matrix rotates; warnings are errors here.  That pair is
        # rotated like any other and is orthogonal a sweep later, so the
        # stack must still stop before the last sweep.
        a = np.array([[1.0, 1e-155], [0.0, 1e-155], [0.0, 0.0]])
        stack = np.stack([a, _uniform(40, 3, 2), a])
        sweeps = _count_sweeps(monkeypatch, svd, "_round_robin_pairs")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svd_spectra(stack)
            assert 0 < sweeps[0] < svd.JACOBI_MAX_SWEEPS
            assert_rows_are_factorize_spectra(stack)

    def test_converged_matrices_beside_rotating_ones(self):
        # Orthogonal columns rotate nothing in the first sweep, nearly
        # orthogonal ones stop within a few and a random 40x40 after about
        # ten.  A converged matrix goes on being rotated by c = 1, s = 0
        # while the others rotate, and keeps its bytes.
        stack = np.stack([
            np.eye(40) * np.arange(40.0, 0.0, -1.0),
            np.eye(40) * np.arange(40.0, 0.0, -1.0) + 1e-3 * _uniform(41, 40, 40),
            _uniform(42, 40, 3) @ _uniform(43, 3, 40),
            _uniform(44, 40, 40),
        ])
        assert_rows_are_factorize_spectra(stack)

    def test_chunks(self, monkeypatch):
        # svd_spectra's chunks, then svd_factorize's one-matrix stacks, all
        # through the one values path.
        sizes = []
        spectra = svd._spectra
        monkeypatch.setattr(svd, "SPECTRA_CHUNK", 2)
        monkeypatch.setattr(
            svd, "_spectra", lambda a, vt=None: sizes.append(len(a)) or spectra(a, vt)
        )
        assert_rows_are_factorize_spectra(_uniform(45, 5, 8, 6))
        assert sizes == [2, 2, 1] + [1] * 5

    def test_one_sweep_loop(self, monkeypatch):
        # svd_factorize sweeps its matrix without a V^T for the values and
        # with one for the vectors, svd_spectra each chunk without one.
        calls = _spy_sweep(monkeypatch)
        assert svd_factorize(Matrix(_uniform(46, 9, 6))).v.shape == (6, 6)
        assert calls == [(1, None), (1, (6, 6))]
        calls.clear()
        monkeypatch.setattr(svd, "SPECTRA_CHUNK", 2)
        svd_spectra(_uniform(47, 5, 8, 6))
        assert calls == [(2, None), (2, None), (1, None)]

    def test_synth_templates(self):
        # synth 9x12, data seed 0; its first 7 samples per class are synth 9x7.
        templates = [
            extract_iris_basis(*render_eye(EyeSpec(class_seed_for(0, cls), sample)))
            for cls in range(1, 10)
            for sample in range(1, 13)
        ]
        got = assert_rows_are_factorize_spectra(np.array(templates))
        assert sum(map(_rank_deficient, got)) > 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_degraded_templates(self, seed, tmp_path):
        templates, cropped = [], 0
        for path in _benchmark_degraded_eyes(seed, tmp_path):
            try:
                img, _, pupil, bounds = harness.segment_eye(path, harness.PipelineConfig())
                templates.append(extract_iris_basis(img, pupil, bounds))
            except (harness.PipelineStageError, TemplateExtractionError):
                continue
            cropped += img.width < EyeSpec.width
        assert 0 < cropped < len(templates)
        assert_rows_are_factorize_spectra(np.array(templates))

    def test_tight_crop_template(self, tmp_path):
        [s] = assert_rows_are_factorize_spectra(_tight_crop_template(tmp_path)[None])
        assert _rank_deficient(s)

    def test_rejects_wide_and_flat_input(self):
        for bad in (np.zeros((2, 3, 4)), np.zeros((3, 4))):
            with pytest.raises(ValueError, match="stack"):
                svd_spectra(bad)

    @pytest.mark.parametrize(
        "stack, matrix",
        [
            ([np.ones((3, 2)), _NAN_3X2], _NAN_3X2),
            ([np.ones((3, 2)), _INF_3X2], _INF_3X2),
            (np.zeros((0, 3, 2)), np.zeros((0, 2))),
            (np.zeros((2, 3, 0)), np.zeros((3, 0))),
        ],
        ids=["nan", "inf", "no_matrices", "no_columns"],
    )
    def test_refuses_what_matrix_refuses(self, stack, matrix):
        # Same check, same wording: a NaN is no NaN spectrum, an inf no
        # numpy warning, an empty stack no concatenate error.
        with pytest.raises(ValueError) as matrix_error:
            Matrix(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as stack_error:
                svd_spectra(stack)
        assert str(stack_error.value) == str(matrix_error.value)


def _first_round(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """A one-matrix sweep stack wt (n, 1, n) whose first round gathers the
    given (p, q) pairs of 2-vectors.  Pair j fills entries 2j and 2j + 1 of
    its two columns, so the pairs start orthogonal to one another."""
    h = len(pairs)
    pq = svd._round_robin_pairs(2 * h)[0]
    wt = np.zeros((2 * h, 1, 2 * h))
    for j, (p, q) in enumerate(pairs):
        wt[pq[j], 0, 2 * j : 2 * j + 2] = p
        wt[pq[h + j], 0, 2 * j : 2 * j + 2] = q
    return wt


def _sweep_both_steps(wt: np.ndarray) -> list[np.ndarray | None]:
    """Sweep a one-matrix stack, checking on every round that the scalar and
    the vector step give the same c and s bytes, or both no rotation, for the
    Gram entries the sweep computed.  Returns each round's c and s."""
    rounds = []
    scalar, vector = svd._scalar_step, svd._vector_step

    def both(gram):
        got, want = scalar(gram), vector(gram)
        assert (got is None) == (want is None), gram
        assert got is None or got.tobytes() == want.tobytes(), gram
        rounds.append(got)
        return got

    with mock.patch.object(svd, "_scalar_step", both):
        svd._sweep(wt)
    return rounds


@st.composite
def _column_pair(draw):
    """Two columns of one family, in either order.  All but the tiny family
    scale both by one power of two down to 2^-540 (about 3e-163), which keeps
    tau = 0 and off as they are."""
    entry = _ENTRIES.filter(bool)
    kind = draw(st.sampled_from(
        ["random", "duplicate", "orthogonal", "zero", "skewed", "at_tol", "tiny"]
    ))
    p = np.array([draw(entry), draw(entry)])
    q = np.array([draw(_ENTRIES), draw(_ENTRIES)])
    if kind == "duplicate":  # tau = +0 or, for q = -p, -0
        q = draw(st.sampled_from([1.0, -1.0])) * p
    elif kind == "orthogonal":
        p, q = np.array([p[0], 0.0]), np.array([0.0, p[1]])
    elif kind == "zero":
        q = np.zeros(2)
    elif kind == "skewed":  # |tau| >= 2^27 where the pair rotates
        p = np.array([1.0, 0.0])
        q = np.ldexp([draw(st.sampled_from([1.0, -1.0])), 1.0],
                     [-draw(st.integers(28, 60)), -draw(st.integers(1, 60))])
    elif kind == "at_tol":  # off = |apq| / sqrt(app aqq) within a few ulps of JACOBI_TOL
        x, z = (draw(st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3)) for _ in "xz")
        ulps = draw(st.integers(-3, 3))
        y = svd.JACOBI_TOL * np.sqrt((x * x) * (z * z)) / abs(x)
        for _ in range(abs(ulps)):
            y = np.nextafter(y, np.inf * ulps)
        p, q = np.array([x, 0.0]), np.array([draw(st.sampled_from([1.0, -1.0])) * y, z])
    elif kind == "tiny":  # entries down to 1e-160 beside ones near 1: aqq subnormal
        q = np.ldexp(q, -draw(st.integers(440, 540)))
    if draw(st.booleans()):
        p, q = q, p
    e = 0 if kind == "tiny" else draw(st.integers(0, 540))
    return np.ldexp(p, -e), np.ldexp(q, -e)


class TestRotationSteps:
    """A one-matrix round takes c and s from svd._scalar_step, a stack's from
    svd._vector_step, and the two give the same bytes."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(_column_pair(), min_size=1, max_size=6))
    def test_steps_agree_on_every_round(self, pairs):
        assert _sweep_both_steps(_first_round(pairs))

    def test_edge_pairs(self):
        # One pair per edge case, and what the first round does with it.
        c, tol = 1.0 / 2.0**0.5, svd.JACOBI_TOL
        cases = [
            (np.array([3.0, 4.0]), np.array([3.0, 4.0]), (c, c)),  # tau = +0: t = 1
            (np.array([3.0, 4.0]), np.array([-3.0, -4.0]), (c, c)),  # tau = -0: t = 1
            (np.array([3.0, 0.0]), np.array([0.0, 4.0]), (1.0, 0.0)),  # orthogonal
            (np.array([3.0, 4.0]), np.zeros(2), (1.0, 0.0)),  # zero column
            (np.array([1.0, 0.0]), np.array([tol, 1.0]), (1.0, 0.0)),  # off = tol
            (np.array([1.0, 0.0]), np.array([np.nextafter(tol, 1.0), 1.0]), None),  # an ulp more
            (np.array([1.0, 0.0]), np.ldexp([1.0, 1.0], [-40, -20]), None),  # tau < -2^27
            (np.array([1.0, 0.0]), np.ldexp([3.0, 4.0], -540), (1.0, 0.0)),  # aqq = 0
            (np.array([1.0, 0.0]), np.ldexp([3.0, 4.0], -531), None),  # subnormal aqq
        ]
        first = _sweep_both_steps(_first_round([(p, q) for p, q, _ in cases]))[0]
        for j, (p, q, cs) in enumerate(cases):
            if cs is None:
                assert first[1, j] != 0.0, j
            else:
                assert tuple(first[:, j]) == cs, j
                assert np.signbit(first[1, j]) == 0, j
        # Rutishauser's t = -1 / (|tau| + |tau|) past the clamp: s = t.
        tau = (np.ldexp(1.0, -80) + np.ldexp(1.0, -40) - 1.0) / np.ldexp(2.0, -40)
        assert first[1, 6] == -1.0 / (2.0 * -tau)

    def test_step_chosen_by_stack_size(self, monkeypatch):
        calls = []
        for name in ("_scalar_step", "_vector_step"):
            step = getattr(svd, name)
            monkeypatch.setattr(svd, name, lambda gram, name=name, step=step:
                                calls.append(name) or step(gram))
        svd_factorize(Matrix(_uniform(48, 9, 6))).u
        assert calls and set(calls) == {"_scalar_step"}
        calls.clear()
        svd_spectra(_uniform(49, 2, 9, 6))
        assert calls and set(calls) == {"_vector_step"}


class TestFeatureVector:
    @pytest.mark.parametrize("k", [3, 10, 20, 40])
    def test_template_dimensions(self, k, tmp_path):
        img, _, _ = render_eye(EyeSpec(class_seed=2, sample_seed=3))
        path = tmp_path / "eye.pgm"
        write_pgm_file(path, img)
        x = harness._template_spectrum(path, harness.PipelineConfig())[:k]
        assert x.shape == (k,) and x.dtype == np.float64
        assert np.all(np.diff(x) <= 0.0) and x[-1] >= 0.0


def _spy_sweep(monkeypatch) -> list[tuple]:
    """Patch svd._sweep to record each call's stack size and vt's shape (None
    when no vt is given)."""
    calls = []
    sweep = svd._sweep

    def spy(wt, vt=None):
        calls.append((wt.shape[1], None if vt is None else vt.shape))
        return sweep(wt, vt)

    monkeypatch.setattr(svd, "_sweep", spy)
    return calls


class TestVectorsOnDemand:
    """svd_factorize computes s at once, and u and v on their first read."""

    def test_values_alone_sweep_once(self, monkeypatch):
        calls = _spy_sweep(monkeypatch)
        f = svd_factorize(Matrix(_uniform(30, 40, 40)))
        assert f.n == 40 and np.all(np.diff(f.s) <= 0.0)
        assert calls == [(1, None)]

    def test_vectors_sweep_once_more(self, monkeypatch):
        calls = _spy_sweep(monkeypatch)
        a = Matrix(_uniform(31, 9, 6))
        f = svd_factorize(a)
        u = f.u
        assert calls == [(1, None), (1, (6, 6))]
        v = f.v
        check_invariants(a, f)
        assert calls == [(1, None), (1, (6, 6))]
        assert f.u is u and f.v is v

    def test_vectors_take_as_many_sweeps_as_values(self, monkeypatch):
        sweeps = _count_sweeps(monkeypatch, svd, "_round_robin_pairs")
        f = svd_factorize(Matrix(_uniform(32, 12, 8)))
        swept = sweeps[0]
        f.reconstruct()
        assert sweeps[0] == 2 * swept > 0

    def test_unread_vectors_keep_no_array(self):
        # A factorization whose u and v are never read keeps less than one
        # 40x40 float64 array beyond its s: nothing of the sweep is kept.  The
        # inputs, which the vectors would be swept from, exist before tracing.
        matrices = [Matrix(_uniform(33 + i, 40, 40)) for i in range(10)]
        svd_factorize(matrices[0])  # caches the width-40 schedule
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [svd_factorize(a) for a in matrices]
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        beyond_s = grown / len(kept) - kept[0].s.nbytes
        assert beyond_s < 40 * 40 * 8, beyond_s

    def test_direct_construction_returns_its_arrays(self):
        u, s, v = np.eye(3), np.array([3.0, 2.0, 1.0]), np.eye(3)[::-1]
        f = SvdFactorization(u=u, s=s, v=v)
        assert f.u is u and f.s is s and f.v is v
        assert np.array_equal(f.reconstruct(), np.diag(s)[:, ::-1])
