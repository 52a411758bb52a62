"""Property tests (hypothesis): batching, covariance bookkeeping, projection,
KNN imputation, CSV round trip, window counts, fold disjointness."""
from __future__ import annotations

import functools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkm import schema
from nkm.data import (_BLOCK, Preprocessor, VisitTable, build_windows, load_visits_csv,
                      materialize_fold, subject_kfold, write_visits_csv)
from nkm.model import ABLATION_SETUPS, AblationFlags, ArchConfig, NkmModel
from nkm.synthetic import SyntheticConfig, generate_synthetic
from nkm.tensor import no_grad
from nkm.training import koopman_covariances

SEEDS = st.integers(0, 2**32 - 1)


def tiny_arch(**kw) -> ArchConfig:
    base = dict(d_z=8, n_heads=2,
                group_hidden={g: (6, 4) for g in schema.GROUP_NAMES},
                n_refine_blocks=2, n_decoder_blocks=2, dropout=0.0)
    base.update(kw)
    return ArchConfig(**base)


@settings(max_examples=25, deadline=None)
@given(B=st.integers(1, 5), window=st.integers(2, 4),
       n_heads=st.sampled_from([1, 2, 4]), setup=st.sampled_from(ABLATION_SETUPS),
       seed=SEEDS)
def test_batched_forward_equals_per_window(B, window, n_heads, setup, seed):
    m = NkmModel(tiny_arch(window=window, n_heads=n_heads), seed=seed % 1000,
                 ablation=AblationFlags.from_name(setup))
    X = np.random.default_rng(seed).standard_normal((B, window, schema.N_FEATURES))
    out = m.forward(X)
    for b in range(B):
        one = m.forward(X[b:b + 1])
        for got, want in [(out.pred.data[b], one.pred.data[0]),
                          (out.control.data[b], one.control.data[0]),
                          (out.z_next.data[b], one.z_next.data[0]),
                          (out.z_last.data[b], one.z_last.data[0]),
                          (out.z.data[b::B], one.z.data),
                          (out.alpha[b], one.alpha[0]),
                          (out.beta[b], one.beta[0]),
                          (out.gate[b], one.gate[0])]:
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def desk_model(seed: int, setup: str) -> NkmModel:
    return NkmModel(ArchConfig(), seed=seed,
                    ablation=AblationFlags.from_name(setup))


@settings(max_examples=60, deadline=None)
@given(n_visits=st.integers(1, 8), B=st.integers(1, 12), sliding=st.booleans(),
       setup=st.sampled_from(ABLATION_SETUPS), seed=SEEDS)
@example(n_visits=3, B=1, sliding=True, setup="full", seed=2)     # B = 1
@example(n_visits=6, B=4, sliding=True, setup="full", seed=1)     # overlapping
@example(n_visits=1, B=3, sliding=False, setup="full", seed=2)    # one visit
@example(n_visits=2, B=8, sliding=False, setup="full", seed=3)    # repeats
def test_predict_equals_forward_bytes_at_desk_size(n_visits, B, sliding,
                                                   setup, seed):
    """The encode-once latent pass gives `forward`'s predictions byte for
    byte, whether windows overlap, repeat whole, or repeat a visit inside
    one window, as long as the batch holds two distinct visits. (Two
    visits over w = 3 repeat a visit inside every window.)"""
    m = desk_model(seed % 4, setup)
    w = m.arch.window
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((n_visits, schema.N_FEATURES))
    if sliding:
        seq = rng.integers(0, n_visits, B + w - 1)
        idx = np.stack([seq[b:b + w] for b in range(B)])
    else:
        idx = rng.integers(0, n_visits, (B, w))
    X = pool[idx]
    with no_grad():
        want = m.forward(X).pred.data
    got = m.predict(X)
    if len(np.unique(idx)) > 1:
        assert np.array_equal(got, want)
    else:
        # one distinct visit is one encoder row, a product that takes the
        # BLAS matrix-vector path: it may round the last bit differently
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=50, deadline=None)
@given(B=st.integers(1, 6), w=st.integers(2, 5), d=st.integers(1, 5), seed=SEEDS)
def test_covariances_sum_over_transition_pairs(B, w, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((w * B, d))     # row t*B + b: visit t of window b
    c = rng.standard_normal((B, d))
    c_zz, c_nz, c_cz = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    pairs = 0
    for b in range(B):
        for t in range(w - 1):
            z_t, z_n = z[t * B + b], z[(t + 1) * B + b]
            c_zz += np.outer(z_t, z_t)
            c_nz += np.outer(z_n, z_t)
            c_cz += np.outer(c[b], z_t)
            pairs += 1
    got = koopman_covariances(z, c)
    for g, want in zip(got, (c_zz / pairs, c_nz / pairs, c_cz / pairs)):
        assert np.allclose(g, want, rtol=0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 12), log_scale=st.floats(-3.0, 3.0),
       rho=st.floats(0.05, 2.0), seed=SEEDS)
def test_projection_keeps_exact_norm_within_rho(d, log_scale, rho, seed):
    m = NkmModel(tiny_arch(d_z=d, n_heads=1), seed=0)
    K = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal((d, d))
    before = np.linalg.svd(K, compute_uv=False)[0]
    m.K.data = K.copy()
    m.project_spectral(rho)
    after = np.linalg.svd(m.K.data, compute_uv=False)[0]
    assert after <= rho * (1.0 + 1e-12)
    if before <= rho:
        assert np.array_equal(m.K.data, K)
    else:
        # a pure rescale onto the sphere of radius rho
        assert np.allclose(m.K.data * (before / rho), K, rtol=1e-12, atol=0.0)
        assert after >= rho * (1.0 - 1e-12)


@np.errstate(over="ignore", invalid="ignore")
def knn_reference(pre: Preprocessor, X: np.ndarray) -> np.ndarray:
    """Per-row KNN imputation: one full distance scan and stable argsort per
    row with a NaN, then one mean per missing cell. A distance that
    overflows is inf or NaN, and such a row is not a neighbour."""
    Z = (np.asarray(X, dtype=np.float64) - pre.mean_) / pre.std_
    T = pre.train_std_
    t_obs = ~np.isnan(T)
    T0 = np.where(t_obs, T, 0.0)
    for i in np.where(np.isnan(Z).any(axis=1))[0]:
        q = Z[i]
        q_obs = ~np.isnan(q)
        q0 = np.where(q_obs, q, 0.0)
        co = t_obs & q_obs
        diff = (T0 - q0) * co
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2 = np.where(co.any(axis=1), d2, np.inf)
        order = np.argsort(d2, kind="stable")
        neighbors = order[np.isfinite(d2[order])][: pre.k]
        for j in np.where(~q_obs)[0]:
            vals = T[neighbors, j]
            vals = vals[~np.isnan(vals)]
            Z[i, j] = float(vals.mean()) if vals.size else 0.0
    return Z


def random_features(rng, n: int, nan_rate: float, grid: bool, scale: float = 1.0):
    """(n, 44) features; on a coarse grid, distances tie exactly."""
    if grid:
        X = rng.integers(-2, 3, (n, schema.N_FEATURES)) * 0.5
    else:
        X = rng.standard_normal((n, schema.N_FEATURES))
    X = X * scale
    X[rng.random(X.shape) < nan_rate] = np.nan
    return X


@settings(max_examples=150, deadline=None)
@given(n_train=st.integers(1, 40), n_query=st.integers(1, 40), k=st.integers(1, 12),
       nan_rate=st.sampled_from([0.0, 0.2, 0.6, 0.95]), grid=st.booleans(),
       dup=st.booleans(), log_scale=st.floats(-3.0, 3.0), seed=SEEDS)
# fewer train rows than k
@example(n_train=1, n_query=30, k=7, nan_rate=0.2, grid=False, dup=False,
         log_scale=0.0, seed=1)
@example(n_train=3, n_query=30, k=7, nan_rate=0.6, grid=False, dup=False,
         log_scale=0.0, seed=3)
@example(n_train=6, n_query=30, k=12, nan_rate=0.2, grid=True, dup=True,
         log_scale=0.0, seed=6)
def test_knn_imputation_matches_per_row_reference(n_train, n_query, k, nan_rate, grid,
                                                 dup, log_scale, seed):
    rng = np.random.default_rng(seed)
    X = random_features(rng, n_train, nan_rate, grid)
    if dup:     # repeated train rows: exact distance ties
        X = X[rng.integers(0, n_train, n_train)]
    X[rng.integers(0, n_train, schema.N_FEATURES), np.arange(schema.N_FEATURES)] = 1.0
    Q = random_features(rng, n_query, nan_rate, grid, scale=10.0 ** log_scale)
    Q[: n_query // 3] = X[rng.integers(0, n_train, n_query // 3)]
    # one observed cell: no co-observed feature with the train rows missing
    # it; all NaN: none with any train row
    lonely = np.full((2, schema.N_FEATURES), np.nan)
    lonely[0, rng.integers(schema.N_FEATURES)] = 0.5
    Q = np.vstack([Q, lonely])
    pre = Preprocessor(k=k).fit(X)
    got = pre.transform(Q)
    assert got.tobytes() == knn_reference(pre, Q).tobytes()


def test_knn_imputation_matches_reference_on_missing_cohort():
    table, _ = generate_synthetic(SyntheticConfig(
        n_subjects=60, visits_per_subject=6, missing_rate=0.2), seed=5)
    test = subject_kfold(table.unique_subjects(), k=5, seed=5)[0]
    fold = materialize_fold(table, test, seed=5)
    pre = fold.preprocessor
    for subjects in (fold.train_subjects, fold.val_subjects, test):
        X = table.subset_subjects(subjects).X
        assert np.isnan(X).any()
        got = pre.transform(X)
        assert np.isfinite(got).all()
        assert got.tobytes() == knn_reference(pre, X).tobytes()


def expanded_distances(pre: Preprocessor, Q: np.ndarray) -> np.ndarray:
    """The GEMM expansion t^2 + q^2 - 2tq over co-observed features that
    shortlists neighbours, for checking that a test reaches a path."""
    T = pre.train_std_
    t_obs = ~np.isnan(T)
    T0 = np.where(t_obs, T, 0.0)
    q_obs = ~np.isnan(Q)
    Q0 = np.where(q_obs, Q, 0.0)
    return np.hstack([q_obs, Q0 * Q0, -2.0 * Q0]) @ np.hstack([T0 * T0, t_obs, T0]).T


def test_knn_rows_without_a_co_observed_feature_fill_the_smallest_slots():
    # 30 train rows observe only features 0-9 and the queries only 20-43:
    # those rows expand to exactly 0, below every neighbour's distance
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, schema.N_FEATURES))
    X[:30, 10:] = np.nan
    Q = rng.standard_normal((9, schema.N_FEATURES)) + 3.0
    Q[:, :20] = np.nan
    for k in (1, 5, 12):
        pre = Preprocessor(k=k).fit(X)
        Z = (Q - pre.mean_) / pre.std_
        assert np.all(np.sort(expanded_distances(pre, Z), axis=1)[:, :30] == 0.0)
        assert pre.transform(Q).tobytes() == knn_reference(pre, Q).tobytes()


def test_knn_near_duplicates_whose_expansion_rounds_below_zero():
    # six near-copies of each train row and queries within an ulp of them:
    # the expansion of a distance of about 1e-30 rounds to +-1e-14, so the
    # kth smallest of many rows is below zero, and the copies expand in
    # another order than their exact distances
    rng = np.random.default_rng(0)
    base = np.repeat(rng.standard_normal((20, schema.N_FEATURES)) * 3.0, 6, axis=0)
    X = base * (1.0 + 1e-15 * rng.standard_normal(base.shape))
    Q = base[::6] * (1.0 + 1e-15 * rng.standard_normal((20, schema.N_FEATURES)))
    Q[:, 0] = np.nan
    pre = Preprocessor(k=5).fit(X)
    Z = (Q - pre.mean_) / pre.std_
    kth = np.partition(expanded_distances(pre, Z), 4, axis=1)[:, 4]
    assert np.sum(kth < 0.0) >= 5
    assert pre.transform(Q).tobytes() == knn_reference(pre, Q).tobytes()


def test_knn_block_of_all_nan_queries():
    # no train row shares a feature with any query of the first two blocks;
    # every missing cell gets the train column mean
    rng = np.random.default_rng(4)
    X = random_features(rng, 50, 0.2, grid=False)
    X[0] = 1.0
    Q = np.vstack([np.full((2 * _BLOCK, schema.N_FEATURES), np.nan),
                   random_features(rng, 5, 0.2, grid=False)])
    pre = Preprocessor(k=5).fit(X)
    got = pre.transform(Q)
    assert np.all(got[:2 * _BLOCK] == 0.0)
    assert got.tobytes() == knn_reference(pre, Q).tobytes()


def test_knn_queries_span_several_blocks_with_a_ragged_last_one():
    rng = np.random.default_rng(5)
    X = random_features(rng, 300, 0.2, grid=True)
    X[0] = 1.0
    Q = random_features(rng, 3 * _BLOCK + 17, 0.1, grid=True)
    Q[::7] = 0.5    # rows without a NaN sit between the imputed ones
    n_imputed = np.isnan(Q).any(axis=1).sum()
    assert n_imputed > 2 * _BLOCK and n_imputed % _BLOCK
    for k in (1, 5):
        pre = Preprocessor(k=k).fit(X)
        assert pre.transform(Q).tobytes() == knn_reference(pre, Q).tobytes()


def test_knn_matches_reference_at_score_missing_size():
    # 2,048 train rows and 640 held-out rows with 20 % missing cells, the
    # shape the score-missing benchmark imputes
    rng = np.random.default_rng(6)
    X = random_features(rng, 2048, 0.2, grid=False)
    Q = random_features(rng, 640, 0.2, grid=False)
    pre = Preprocessor().fit(X)
    assert pre.transform(Q).tobytes() == knn_reference(pre, Q).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_knn_queries_whose_expansion_overflows(scale):
    # q^2 overflows past about 1.3e154: a train row that observes a huge
    # cell is at an inf distance, so the neighbours are rows missing it
    rng = np.random.default_rng(7)
    X = random_features(rng, 60, 0.3, grid=False)
    X[0] = 1.0
    Q = random_features(rng, 12, 0.3, grid=False)
    Q[:4] *= scale
    Q[4:, 1] = scale
    Q[4:, 2] = np.nan
    pre = Preprocessor(k=5).fit(X)
    got = pre.transform(Q)
    assert np.all(np.isfinite(got[:, 2]))
    assert got.tobytes() == knn_reference(pre, Q).tobytes()


def one_hot_features(rng, n: int, nan_rate: float) -> np.ndarray:
    """Features that pass the loader's one-hot check, NaN cells included."""
    scale = 10.0 ** rng.integers(-5, 6, n)[:, None]
    X = rng.standard_normal((n, schema.N_FEATURES)) * scale
    for block in schema.ONE_HOT_INDEX_BLOCKS:
        X[:, block] = 0.0
        X[np.arange(n), rng.choice(block, n)] = 1.0
    X[rng.random(X.shape) < nan_rate] = np.nan
    return X


@settings(max_examples=40, deadline=None)
@given(names=st.lists(st.text("abcXYZ019_-", min_size=1, max_size=5), min_size=1,
                      max_size=6, unique=True),
       visits=st.integers(1, 4), nan_rate=st.sampled_from([0.0, 0.3, 1.0]), seed=SEEDS)
def test_csv_round_trip_keeps_values_and_nan_cells(tmp_path_factory, names, visits,
                                                   nan_rate, seed):
    rng = np.random.default_rng(seed)
    ids = [s for s in sorted(names) for _ in range(visits)]
    n = len(ids)
    Y = rng.standard_normal((n, schema.N_TARGETS))
    Y[rng.random(Y.shape) < nan_rate] = np.nan
    table = VisitTable(ids, np.tile(np.arange(visits) * 6, len(names)),
                       one_hot_features(rng, n, nan_rate), Y)
    path = tmp_path_factory.mktemp("csv") / "visits.csv"
    write_visits_csv(table, str(path))
    back = load_visits_csv(str(path))
    assert back.subject_ids == table.subject_ids
    assert np.array_equal(back.visits, table.visits)
    assert back.X.tobytes() == table.X.tobytes()
    assert back.Y.tobytes() == table.Y.tobytes()


@settings(max_examples=60, deadline=None)
@given(per_subject=st.lists(st.integers(0, 7), min_size=1, max_size=6),
       w=st.integers(1, 4), nan_rate=st.sampled_from([0.0, 0.3]), seed=SEEDS)
def test_window_count(per_subject, w, nan_rate, seed):
    # sum over subjects of max(0, v - w), less the windows whose target row,
    # the visit at sequence position >= w, has a missing target
    rng = np.random.default_rng(seed)
    ids = [f"S{i}" for i, v in enumerate(per_subject) for _ in range(v)]
    visits = np.concatenate([rng.permutation(20)[:v] for v in per_subject])
    order = rng.permutation(len(ids))       # rows in no particular order
    Y = rng.standard_normal((len(ids), schema.N_TARGETS))
    Y[rng.random(Y.shape) < nan_rate] = np.nan
    table = VisitTable([ids[i] for i in order], visits[order],
                       rng.standard_normal((len(ids), schema.N_FEATURES)), Y[order])
    position = np.array([sum(t == s and u < v for t, u in zip(table.subject_ids,
                                                             table.visits))
                         for s, v in zip(table.subject_ids, table.visits)])
    dropped = np.sum((position >= w) & np.isnan(table.Y).any(axis=1))
    assert len(build_windows(table, w=w)) == (
        sum(max(0, v - w) for v in per_subject) - dropped)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 5), extra=st.integers(0, 8), fold=st.integers(0, 4),
       val_frac=st.floats(0.05, 0.6), seed=SEEDS)
def test_folds_are_disjoint_and_cover_every_subject(k, extra, fold, val_frac, seed):
    table, _ = generate_synthetic(SyntheticConfig(
        n_subjects=k + 2 + extra, visits_per_subject=4), seed=seed % 1000)
    subjects = table.unique_subjects()
    folds = subject_kfold(subjects, k=k, seed=seed)
    assert sorted(s for f in folds for s in f) == sorted(subjects)
    assert max(map(len, folds)) - min(map(len, folds)) <= 1
    fd = materialize_fold(table, folds[fold % k], seed=seed, val_frac=val_frac)
    parts = (fd.train_subjects, fd.val_subjects, fd.test_subjects)
    assert all(parts)
    assert sorted(s for p in parts for s in p) == sorted(subjects)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 10

def test_passes():
    pass
"""


def test_failing_property_is_reported_under_project_settings(tmp_path):
    # with every DeprecationWarning an error, the warning libcst raises while
    # hypothesis prepares its report became an INTERNALERROR: no falsifying
    # example, and no later test ran
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "-q", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
