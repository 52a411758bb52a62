"""Visit table IO, windowing, folds, standardize+impute oracle cases."""
from __future__ import annotations

import math

import numpy as np
import pytest

from nkm import schema
from nkm.data import (Preprocessor, VisitTable, build_windows, load_visits_csv,
                      materialize_fold, subject_kfold, train_val_split,
                      write_csv, write_visits_csv)


def make_table(rows):
    """rows: list of (sid, visit, feat_dict, target_tuple)."""
    sids, visits, X, Y = [], [], [], []
    for sid, v, feats, y in rows:
        sids.append(sid)
        visits.append(v)
        x = np.zeros(schema.N_FEATURES)
        for name, val in feats.items():
            x[schema.feature_index(name)] = val
        X.append(x)
        Y.append(list(y))
    return VisitTable(sids, np.array(visits, dtype=np.int64),
                      np.array(X), np.array(Y))


class TestCsv:
    def test_round_trip_bytes(self, tmp_path):
        t = make_table([
            ("A", 0, {"CSF_TAU": 1.25, "DEMO_SEX_F": 1.0}, (0.1, 0.2, 0.3)),
            ("A", 1, {"CSF_TAU": np.nan}, (1.0, -2.0, 3.5)),
            ("B", 0, {"MRI_ICV": 1e-3}, (0.0, 0.0, 7.125)),
        ])
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_visits_csv(t, str(p1))
        write_visits_csv(load_visits_csv(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_cells_back_to_nan(self, tmp_path):
        t = make_table([("A", 0, {"CSF_TAU": np.nan}, (1, 2, 3))])
        p = tmp_path / "a.csv"
        write_visits_csv(t, str(p))
        back = load_visits_csv(str(p))
        assert np.isnan(back.X[0, schema.feature_index("CSF_TAU")])

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("subject_id,visit,whatever\nA,0,1\n")
        with pytest.raises(ValueError, match="header"):
            load_visits_csv(str(p))

    def test_duplicate_visit_rejected(self, tmp_path):
        t = make_table([("A", 0, {}, (1, 2, 3))])
        p = tmp_path / "a.csv"
        write_visits_csv(t, str(p))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_visits_csv(str(p))

    def test_non_numeric_rejected(self, tmp_path):
        t = make_table([("A", 0, {}, (1, 2, 3))])
        p = tmp_path / "a.csv"
        write_visits_csv(t, str(p))
        p.write_text(p.read_text().replace("1,2,3", "1,x,3"))
        with pytest.raises(ValueError, match="non-numeric"):
            load_visits_csv(str(p))

    def test_one_hot_violation_rejected(self, tmp_path):
        t = make_table([("A", 0, {"DEMO_SEX_F": 1.0, "DEMO_SEX_M": 1.0}, (1, 2, 3))])
        p = tmp_path / "a.csv"
        write_visits_csv(t, str(p))
        with pytest.raises(ValueError, match="one-hot"):
            load_visits_csv(str(p))

    def test_loader_sorts_by_subject_then_visit(self, tmp_path):
        t = make_table([
            ("B", 1, {}, (1, 1, 1)),
            ("A", 2, {}, (2, 2, 2)),
            ("A", 0, {}, (3, 3, 3)),
        ])
        p = tmp_path / "a.csv"
        write_visits_csv(t, str(p))
        back = load_visits_csv(str(p))
        assert back.subject_ids == ["A", "A", "B"]
        assert list(back.visits) == [0, 2, 1]

    def test_write_csv_cells(self, tmp_path):
        # every command output goes through this one cell rule
        p = tmp_path / "cells.csv"
        write_csv(p, ["nan", "inf", "neg", "tenth", "np", "int", "str", "npint"],
                  [[math.nan, math.inf, -math.inf, 0.1, np.float64(1 / 3), 7,
                    "a b", np.int64(-2)]])
        assert p.read_text() == ("nan,inf,neg,tenth,np,int,str,npint\n"
                                 ",inf,-inf,0.10000000000000001,"
                                 "0.33333333333333331,7,a b,-2\n")


class TestWindows:
    def test_counts_per_subject(self):
        rows = [("A", v, {}, (1, 1, 1)) for v in range(6)]        # 3 windows
        rows += [("B", v, {}, (1, 1, 1)) for v in range(3)]       # too short
        rows += [("C", v, {}, (1, 1, 1)) for v in range(4)]       # exactly 1
        win = build_windows(make_table(rows), w=3)
        assert len(win) == 4
        assert win.X.shape == (4, 3, schema.N_FEATURES)
        assert sorted(set(win.subjects)) == ["A", "C"]

    def test_targets_come_from_fourth_visit(self):
        rows = [("A", v, {"CSF_TAU": float(v)}, (float(v), 0, 0)) for v in range(5)]
        win = build_windows(make_table(rows), w=3)
        tau = schema.feature_index("CSF_TAU")
        assert np.array_equal(win.X[0, :, tau], np.array([0.0, 1.0, 2.0]))
        assert win.y[0, 0] == 3.0
        assert win.y[1, 0] == 4.0

    def test_visit_order_not_row_order(self):
        rows = [("A", v, {"CSF_TAU": float(v)}, (float(v), 0, 0))
                for v in (3, 1, 0, 2)]
        win = build_windows(make_table(rows), w=3)
        tau = schema.feature_index("CSF_TAU")
        assert np.array_equal(win.X[0, :, tau], np.array([0.0, 1.0, 2.0]))
        assert win.y[0, 0] == 3.0

    def test_nan_target_windows_dropped(self):
        rows = [("A", v, {}, (1.0 if v != 3 else np.nan, 1, 1)) for v in range(5)]
        win = build_windows(make_table(rows), w=3)
        assert len(win) == 1  # only the window targeting visit 4 survives


class TestFolds:
    def test_kfold_partition(self):
        subjects = [f"S{i}" for i in range(23)]
        folds = subject_kfold(subjects, k=5, seed=3)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        flat = [s for f in folds for s in f]
        assert sorted(flat) == sorted(subjects)

    def test_kfold_deterministic(self):
        subjects = [f"S{i}" for i in range(11)]
        assert subject_kfold(subjects, 5, seed=1) == subject_kfold(subjects, 5, seed=1)
        assert subject_kfold(subjects, 5, seed=1) != subject_kfold(subjects, 5, seed=2)

    def test_kfold_validation(self):
        with pytest.raises(ValueError):
            subject_kfold(["a", "b"], k=5)
        with pytest.raises(ValueError):
            subject_kfold(["a", "b", "c"], k=1)

    def test_train_val_split(self):
        tr, va = train_val_split([f"S{i}" for i in range(10)], val_frac=0.2, seed=0)
        assert len(va) == 2 and len(tr) == 8
        assert not set(tr) & set(va)

    @pytest.mark.parametrize("val_frac", [0.0, 1.0, 1.5, -0.2, float("nan"),
                                          float("inf"), "0.2", True])
    def test_train_val_split_refuses_a_fraction_outside_0_1(self, val_frac):
        # 1.5 and 0 were clamped to one subject on one side
        with pytest.raises(ValueError, match="val_frac"):
            train_val_split([f"S{i}" for i in range(10)], val_frac=val_frac)


class TestPreprocessor:
    def test_standardize_known_column(self):
        # column (1,2,3): mean 2, population std sqrt(2/3), hence +-1.2247...
        t = make_table([("A", v, {"CSF_TAU": float(v + 1)}, (0, 0, 0))
                        for v in range(3)])
        z = Preprocessor().fit(t.X).transform(t.X)
        tau = schema.feature_index("CSF_TAU")
        want = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(z[:, tau], want, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        t = make_table([("A", v, {"CSF_TAU": 5.0}, (0, 0, 0)) for v in range(3)])
        z = Preprocessor().fit(t.X).transform(t.X)
        assert np.allclose(z[:, schema.feature_index("CSF_TAU")], 0.0)

    def test_constant_column_unseen_value_is_only_centred(self):
        # a train-constant column gets scale 1, not the std floor
        t = make_table([("A", v, {"CSF_TAU": 5.0}, (0, 0, 0)) for v in range(3)])
        pre = Preprocessor().fit(t.X)
        q = np.zeros((1, schema.N_FEATURES))
        q[0, schema.feature_index("CSF_TAU")] = 7.25
        assert pre.transform(q)[0, schema.feature_index("CSF_TAU")] == 2.25

    def test_knn_impute_hand_case(self):
        # train c0 = 1..5 (std sqrt(2)), c1 = 10,20,30,40,NaN (std 5*sqrt(5));
        # query c0=3.5 -> standardized 0.35355; k=3 neighbors are rows 2,3
        # (dist .35355 each) then the tie at 1.06066 resolves to row 1 by
        # stable order; mean of standardized c1 over rows {2,3,1} = 1/sqrt(5).
        c1_vals = [10.0, 20.0, 30.0, 40.0, np.nan]
        train = make_table([("T", v, {"CSF_ABETA": float(v + 1),
                                      "CSF_TAU": c1_vals[v]}, (0, 0, 0))
                            for v in range(5)])
        pre = Preprocessor(k=3).fit(train.X)
        q = np.zeros((1, schema.N_FEATURES))
        q[0, schema.feature_index("CSF_ABETA")] = 3.5
        q[0, schema.feature_index("CSF_TAU")] = np.nan
        z = pre.transform(q)
        got = z[0, schema.feature_index("CSF_TAU")]
        assert np.isclose(got, 0.4472135954999579, atol=1e-12)

    def test_knn_fallback_to_column_mean(self):
        # nearest row misses c1 too -> standardized train mean, i.e. zero
        c1_vals = [10.0, 20.0, 30.0, 40.0, np.nan]
        train = make_table([("T", v, {"CSF_ABETA": float(v + 1),
                                      "CSF_TAU": c1_vals[v]}, (0, 0, 0))
                            for v in range(5)])
        pre = Preprocessor(k=1).fit(train.X)
        q = np.zeros((1, schema.N_FEATURES))
        q[0, schema.feature_index("CSF_ABETA")] = 5.0   # nearest is row 4
        q[0, schema.feature_index("CSF_TAU")] = np.nan
        z = pre.transform(q)
        assert z[0, schema.feature_index("CSF_TAU")] == 0.0

    def test_refit_is_bit_identical(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, schema.N_FEATURES))
        X[rng.random(X.shape) < 0.1] = np.nan
        X[:, 0] = 1.0  # keep every column observed somewhere
        a = Preprocessor().fit(X)
        b = Preprocessor().fit(X.copy())
        assert np.array_equal(a.mean_, b.mean_)
        assert np.array_equal(a.std_, b.std_)
        assert np.array_equal(a.train_std_, b.train_std_, equal_nan=True)

    def test_transform_after_refit_uses_the_new_train_rows(self):
        # the first transform keeps the train side of the distance GEMM;
        # a second fit must not impute from the first fit's rows
        rng = np.random.default_rng(3)
        X1, X2 = (rng.standard_normal((30, schema.N_FEATURES)) + shift
                  for shift in (0.0, 4.0))
        Q = rng.standard_normal((6, schema.N_FEATURES))
        Q[:, 2] = np.nan
        pre = Preprocessor(k=3).fit(X1)
        pre.transform(Q)
        got = pre.fit(X2).transform(Q)
        assert got.tobytes() == Preprocessor(k=3).fit(X2).transform(Q).tobytes()

    def test_never_observed_column_rejected(self):
        X = np.zeros((4, schema.N_FEATURES))
        X[:, 7] = np.nan
        with pytest.raises(ValueError, match="never observed"):
            Preprocessor().fit(X)

    def test_unfitted_transform_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            Preprocessor().transform(np.zeros((1, schema.N_FEATURES)))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((25, schema.N_FEATURES))
        X[rng.random(X.shape) < 0.1] = np.nan
        X[:, 0] = 1.0
        pre = Preprocessor(k=3).fit(X)
        path = tmp_path / "pre.npz"
        pre.save(path)
        back = Preprocessor.load(path)
        assert back.k == 3
        Q = rng.standard_normal((8, schema.N_FEATURES))
        Q[0, 5] = np.nan
        assert np.array_equal(pre.transform(Q), back.transform(Q))
        with pytest.raises(ValueError, match="not fitted"):
            Preprocessor().save(tmp_path / "unfitted.npz")

    @staticmethod
    def _saved_state(tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((12, schema.N_FEATURES))
        X[rng.random(X.shape) < 0.1] = np.nan
        path = tmp_path / "pre.npz"
        Preprocessor(k=3).fit(X).save(path)
        with np.load(path) as z:
            return dict(z)

    @pytest.mark.parametrize("key, value, match", [
        ("mean", np.zeros(1), "mean"),
        ("std", np.ones(1), "std"),
        ("mean", np.full(schema.N_FEATURES, np.nan), "mean"),
        ("std", np.full(schema.N_FEATURES, np.inf), "std"),
        ("std", np.zeros(schema.N_FEATURES), "std must be .* > 0"),
        ("train_std", np.zeros((0, schema.N_FEATURES)), "train_std"),
        ("train_std", np.zeros((4, 3)), "train_std"),
        ("train_std", np.zeros(schema.N_FEATURES), "train_std"),
        ("k", np.int64(0), "k must be an integer"),
        ("k", np.float64(3.0), "k must be an integer"),
        ("k", np.array([3, 3]), "k must be an integer"),
        ("std_floor", np.array([1e-8, 1e-8]),
         "std_floor must be a finite number >= 0"),
        ("std_floor", np.float64(np.nan),
         "std_floor must be a finite number >= 0"),
        ("mean", np.full(schema.N_FEATURES, "0.5"), "mean must be"),
        ("std", np.full(schema.N_FEATURES, "1.0"), "std must be"),
        ("train_std", np.full((4, schema.N_FEATURES), "0.5"),
         "train_std must be numbers"),
    ], ids=["mean-one-value", "std-one-value", "mean-nan", "std-inf",
            "std-zero", "train-std-no-rows", "train-std-narrow",
            "train-std-1d", "k-zero", "k-float", "k-array",
            "std-floor-two-values", "std-floor-nan", "mean-strings",
            "std-strings", "train-std-strings"])
    def test_load_refuses_unusable_state(self, tmp_path, key, value, match):
        # a one-value mean would broadcast over all columns and k = 0 would
        # impute every missing cell as 0; neither may load. A two-value
        # std_floor raised TypeError, and a NaN one did not name the file. A
        # string mean or std raised TypeError, and a string train_std loaded
        # and failed in the first transform that imputed
        state = self._saved_state(tmp_path)
        state[key] = value
        bad = tmp_path / "bad.npz"
        np.savez(bad, **state)
        with pytest.raises(ValueError, match=match) as err:
            Preprocessor.load(bad)
        assert "bad.npz" in str(err.value)

    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, "3", None],
                             ids=["zero", "negative", "fraction", "float",
                                  "bool", "str", "none"])
    def test_constructor_refuses_bad_k(self, k):
        # k = 0 would fill every missing cell with the column mean; -1 and
        # 2.5 would fail deep inside the KNN step
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            Preprocessor(k=k)

    @pytest.mark.parametrize("std_floor", [-1e-8, np.nan, np.inf, "0", None, True],
                             ids=["negative", "nan", "inf", "str", "none", "bool"])
    def test_constructor_refuses_bad_std_floor(self, std_floor):
        with pytest.raises(ValueError, match="std_floor must be a finite number >= 0"):
            Preprocessor(std_floor=std_floor)

    @pytest.mark.parametrize("k, std_floor",
                             [(1, 0.0), (np.int64(7), 0), (12, np.float32(1e-6))])
    def test_constructor_accepts_usable_values(self, k, std_floor):
        pre = Preprocessor(k=k, std_floor=std_floor)
        assert (pre.k, pre.std_floor) == (k, std_floor)

    def test_load_refuses_missing_array(self, tmp_path):
        state = self._saved_state(tmp_path)
        del state["train_std"]
        bad = tmp_path / "bad.npz"
        np.savez(bad, **state)
        with pytest.raises(ValueError, match="bad.npz.*train_std"):
            Preprocessor.load(bad)


class TestMaterializeFold:
    def test_no_subject_leakage_and_pure_state(self):
        from nkm.synthetic import SyntheticConfig, generate_synthetic
        table, _ = generate_synthetic(SyntheticConfig(
            n_subjects=20, visits_per_subject=5, missing_rate=0.05), seed=1)
        folds = subject_kfold(table.unique_subjects(), k=5, seed=0)
        fd = materialize_fold(table, folds[0], seed=0)
        assert not set(fd.test_subjects) & set(fd.train_subjects)
        assert not set(fd.test_subjects) & set(fd.val_subjects)
        assert not set(fd.train_subjects) & set(fd.val_subjects)
        assert set(fd.test.subjects) <= set(fd.test_subjects)
        assert set(fd.train.subjects) <= set(fd.train_subjects)
        # refit on the train rows alone reproduces the stored state bit-for-bit
        tr_tab = table.subset_subjects(fd.train_subjects)
        re = Preprocessor().fit(tr_tab.X)
        assert np.array_equal(re.mean_, fd.preprocessor.mean_)
        assert np.array_equal(re.std_, fd.preprocessor.std_)
