"""Property tests (hypothesis): batching, covariance bookkeeping, projection,
KNN imputation, CSV round trip, window counts, fold disjointness."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nkm import schema
from nkm.data import (Preprocessor, VisitTable, build_windows, load_visits_csv,
                      materialize_fold, subject_kfold, write_visits_csv)
from nkm.model import ABLATION_SETUPS, AblationFlags, ArchConfig, NkmModel
from nkm.synthetic import SyntheticConfig, generate_synthetic
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


def knn_reference(pre: Preprocessor, X: np.ndarray) -> np.ndarray:
    """Per-row KNN imputation: one full distance scan and stable argsort per
    row with a NaN, then one mean per missing cell."""
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
