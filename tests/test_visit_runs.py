"""`visit_runs` against the per-subject loops it replaced.

The references below are the loops that windows, EDMD snapshot pairs and
the bound harness each ran before they shared `nkm.data.visit_runs`: a
subject -> visit-sorted rows map, then one pass per subject.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkm import schema
from nkm.analysis import geometric_bound, measure_eps, verify_bound
from nkm.data import VisitTable, build_windows, visit_runs
from nkm.edmd import EdmdConfig, EdmdModel, RbfDictionary, fit_dictionary, fit_edmd
from nkm.model import ArchConfig, NkmModel
from nkm.synthetic import SyntheticConfig, generate_synthetic
from nkm.tensor import no_grad

SEEDS = st.integers(0, 2**32 - 1)
BOUND_RTOL = 1e-9


# ---- references ------------------------------------------------------------

def subject_rows(table: VisitTable) -> dict[str, np.ndarray]:
    """Each subject's row indices in visit order (stable), subjects in
    first-appearance order."""
    by_subject: dict[str, list[int]] = {}
    for i, s in enumerate(table.subject_ids):
        by_subject.setdefault(s, []).append(i)
    return {s: np.array(sorted(idx, key=lambda i: table.visits[i]), dtype=np.int64)
            for s, idx in by_subject.items()}


def ref_build_windows(table: VisitTable, w: int):
    xs, ys, subs, starts = [], [], [], []
    for s, idx in subject_rows(table).items():
        for t0 in range(len(idx) - w):
            tgt = table.Y[idx[t0 + w]]
            if np.any(np.isnan(tgt)):
                continue
            xs.append(table.X[idx[t0:t0 + w]])
            ys.append(tgt)
            subs.append(s)
            starts.append(t0)
    if xs:
        X = np.stack(xs).astype(np.float64)
        y = np.stack(ys).astype(np.float64)
    else:
        X = np.zeros((0, w, schema.N_FEATURES))
        y = np.zeros((0, schema.N_TARGETS))
    return X, y, subs, np.array(starts, dtype=np.int64)


def ref_snapshot_rows(table: VisitTable) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for rows in subject_rows(table).values():
        if rows.size >= 2:
            xs.append(table.X[rows[:-1]])
            ys.append(table.X[rows[1:]])
    if not xs:
        raise ValueError("no consecutive visit pairs in table")
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def ref_sequences(model, table):
    """Per subject, (states, controls or None), as the harness built them."""
    if isinstance(model, EdmdModel):
        out = [(model.lift(table.X[rows]), None)
               for rows in subject_rows(table).values() if rows.size >= 2]
        if not out:
            raise ValueError("no subject has two visits")
        return out
    if not np.all(np.isfinite(table.X)):
        raise ValueError("bound harness requires imputed (finite) features")
    w = model.arch.window
    windows, counts = [], []
    for rows in subject_rows(table).values():
        if rows.size >= w:
            windows += [table.X[rows[e - w + 1:e + 1]] for e in range(w - 1, rows.size)]
            counts.append(rows.size - w + 1)
    if not counts:
        raise ValueError("no subject has enough visits for one window")
    with no_grad():
        fwd = model.forward(np.stack(windows))
    cuts = np.cumsum(counts)[:-1]
    return list(zip(np.split(fwd.z_last.data, cuts), np.split(fwd.control.data, cuts)))


def ref_verify_bound(model, table, tau_max):
    """(eps, norm_k, empirical, passed) from one rollout per subject."""
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if isinstance(model, NkmModel):
        K = model.K.data
    else:
        model._require_fitted()
        K = model.K
    seqs = ref_sequences(model, table)
    norm_k = float(np.linalg.svd(K, compute_uv=False)[0])
    if norm_k >= 1.0:
        raise ValueError(f"bound requires ||K||_2 < 1, measured {norm_k:.6g}")
    longest = max(Z.shape[0] for Z, _ in seqs)
    if longest < tau_max + 1:
        raise ValueError(f"tau_max={tau_max} needs a sequence of "
                         f"{tau_max + 1} lifted states; longest is {longest}")
    eps = max(measure_eps(Z[:-1], Z[1:], K, None if C is None else C[:-1])
              for Z, C in seqs if Z.shape[0] > 1)
    empirical = []
    for tau in range(1, tau_max + 1):
        worst = 0.0
        for Z, C in seqs:
            T = Z.shape[0]
            if T < tau + 1:
                continue
            pred = Z[:T - tau].copy()
            for j in range(tau):
                pred = pred @ K.T
                if C is not None:
                    pred = pred + C[j:j + T - tau]
            err = Z[tau:] - pred
            worst = max(worst, float(np.max(np.sqrt(np.sum(err * err, axis=1)))))
        empirical.append(worst)
    passed = all(e <= geometric_bound(eps, norm_k, t)
                 for t, e in enumerate(empirical, start=1))
    return eps, norm_k, empirical, passed


# ---- tables ----------------------------------------------------------------

@st.composite
def tables(draw, nan_targets=True):
    """Subjects with 0-9 visits (a subject with none has no rows), visit
    numbers with gaps, rows shuffled, some targets missing."""
    per_subject = draw(st.lists(st.integers(0, 9), max_size=8))
    nan_rate = draw(st.sampled_from([0.0, 0.3])) if nan_targets else 0.0
    rng = np.random.default_rng(draw(SEEDS))
    ids = [f"S{i}" for i, v in enumerate(per_subject) for _ in range(v)]
    visits = np.concatenate([np.sort(rng.choice(40, size=v, replace=False))
                             for v in per_subject] + [np.zeros(0, np.int64)])
    order = rng.permutation(len(ids))
    X = rng.standard_normal((len(ids), schema.N_FEATURES))
    Y = rng.standard_normal((len(ids), schema.N_TARGETS))
    Y[rng.random(Y.shape) < nan_rate] = np.nan
    return VisitTable([ids[i] for i in order], visits[order].astype(np.int64),
                      X[order], Y[order])


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---- rows, windows, snapshot pairs -----------------------------------------

@settings(max_examples=100, deadline=None)
@given(table=tables(), length=st.integers(1, 5))
def test_runs_are_every_consecutive_visit_run(table, length):
    want_rows, want_seq, want_start = [], [], []
    for i, rows in enumerate(subject_rows(table).values()):
        for t0 in range(rows.size - length + 1):
            want_rows.append(rows[t0:t0 + length])
            want_seq.append(i)
            want_start.append(t0)
    rows, seq, start = visit_runs(table, length)
    assert rows.shape == (len(want_rows), length)
    assert np.array_equal(rows, np.array(want_rows, dtype=np.int64).reshape(-1, length))
    assert np.array_equal(seq, want_seq) and np.array_equal(start, want_start)


def test_length_below_one_rejected():
    table = VisitTable(["a"], np.array([0]), np.zeros((1, schema.N_FEATURES)),
                       np.zeros((1, schema.N_TARGETS)))
    with pytest.raises(ValueError, match="length"):
        visit_runs(table, 0)


@settings(max_examples=100, deadline=None)
@given(table=tables(), w=st.integers(1, 4))
def test_windows_byte_equal_to_per_subject_loop(table, w):
    X, y, subjects, starts = ref_build_windows(table, w)
    got = build_windows(table, w=w)
    assert same_bytes(got.X, X) and same_bytes(got.y, y)
    assert got.subjects == subjects and same_bytes(got.starts, starts)


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_snapshot_pairs_byte_equal_to_per_subject_loop(table):
    pairs, _, _ = visit_runs(table, 2)
    try:
        xs, ys = ref_snapshot_rows(table)
    except ValueError:
        assert pairs.shape == (0, 2)
        return
    assert same_bytes(table.X[pairs[:, 0]], xs)
    assert same_bytes(table.X[pairs[:, 1]], ys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edmd_fit_lifts_once_and_matches_per_pair_lifts(seed, monkeypatch):
    cfg = SyntheticConfig(n_subjects=30, visits_per_subject=6, latent_dim=3)
    table, _ = generate_synthetic(cfg, seed=seed)
    edmd_cfg = EdmdConfig(n_centers=20, seed=seed)
    dictionary = fit_dictionary(table.X, edmd_cfg)
    xs, ys = ref_snapshot_rows(table)
    K = fit_edmd(dictionary.lift(xs), dictionary.lift(ys))

    lifts = []
    lift = RbfDictionary.lift
    monkeypatch.setattr(RbfDictionary, "lift",
                        lambda self, X: lifts.append(len(X)) or lift(self, X))
    model = EdmdModel(edmd_cfg).fit(table)
    assert lifts == [len(table)]
    assert np.allclose(model.K, K, rtol=0.0, atol=1e-9 * np.abs(K).max())


# ---- bound harness ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def nkm_model(window: int) -> NkmModel:
    arch = ArchConfig(d_z=8, n_heads=2, window=window,
                      group_hidden={g: (6, 4) for g in schema.GROUP_NAMES},
                      n_refine_blocks=2, n_decoder_blocks=2, dropout=0.0)
    model = NkmModel(arch, seed=window)
    model.project_spectral(0.9)
    return model


@functools.lru_cache(maxsize=None)
def edmd_model() -> EdmdModel:
    cfg = SyntheticConfig(n_subjects=10, visits_per_subject=5, latent_dim=3)
    table, _ = generate_synthetic(cfg, seed=0)
    model = EdmdModel(EdmdConfig(n_centers=6)).fit(table)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal(model.K.shape))
    model.K = 0.9 * q        # contractive, so the bound is defined
    return model


def assert_reports_match(model, table, tau_max):
    try:
        want = ref_verify_bound(model, table, tau_max)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            verify_bound(model, table, tau_max=tau_max)
        assert str(got.value) == str(exc)
        return
    report = verify_bound(model, table, tau_max=tau_max)
    eps, norm_k, empirical, passed = want
    assert report.eps_tilde == pytest.approx(eps, rel=BOUND_RTOL, abs=0.0)
    assert report.norm_k == norm_k
    assert report.empirical == pytest.approx(empirical, rel=BOUND_RTOL, abs=0.0)
    assert report.empirical[0] == report.eps_tilde
    assert report.passed == passed


@settings(max_examples=60, deadline=None)
@given(table=tables(nan_targets=False), window=st.integers(2, 4),
       tau_max=st.integers(1, 5))
def test_nkm_bound_matches_per_subject_rollout(table, window, tau_max):
    assert_reports_match(nkm_model(window), table, tau_max)


@settings(max_examples=60, deadline=None)
@given(table=tables(nan_targets=False), tau_max=st.integers(1, 5))
def test_edmd_bound_matches_per_subject_rollout(table, tau_max):
    assert_reports_match(edmd_model(), table, tau_max)


def test_bound_errors_keep_their_order():
    # a non-finite visit fails the NKM harness before it counts windows
    table = VisitTable(["a", "a"], np.array([0, 1]),
                       np.full((2, schema.N_FEATURES), np.nan),
                       np.zeros((2, schema.N_TARGETS)))
    for model in (nkm_model(2), edmd_model()):
        assert_reports_match(model, table, 1)
    # one visit per subject: nothing to pair, whatever the features hold
    single = VisitTable(["a", "b"], np.array([0, 3]),
                        np.array([[np.nan] * schema.N_FEATURES,
                                  [0.0] * schema.N_FEATURES]),
                        np.zeros((2, schema.N_TARGETS)))
    with pytest.raises(ValueError, match="no subject has two visits"):
        verify_bound(edmd_model(), single, tau_max=1)
    assert_reports_match(edmd_model(), single, 1)
