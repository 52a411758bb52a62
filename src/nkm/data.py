"""Visit tables, CSV ingestion, windowing, fold plans, preprocessing.

Missing values are NaN inside arrays and empty/NA strings on the wire.
Preprocessing is strictly train-fold state: standardize on observed train
entries, then KNN-impute in standardized space.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .checks import check_int, check_number


@dataclass
class VisitTable:
    """Row-per-visit container. X is (n, 44) with NaN for missing; Y is (n, 3)."""
    subject_ids: list[str]
    visits: np.ndarray
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        n = len(self.subject_ids)
        if not (self.visits.shape == (n,) and self.X.shape == (n, schema.N_FEATURES)
                and self.Y.shape == (n, schema.N_TARGETS)):
            raise ValueError("inconsistent table shapes")

    def __len__(self) -> int:
        return len(self.subject_ids)

    def unique_subjects(self) -> list[str]:
        """Subjects in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.subject_ids:
            seen.setdefault(s, None)
        return list(seen)

    def subset_subjects(self, subjects) -> "VisitTable":
        wanted = set(subjects)
        idx = [i for i, s in enumerate(self.subject_ids) if s in wanted]
        return VisitTable([self.subject_ids[i] for i in idx],
                          self.visits[idx], self.X[idx].copy(), self.Y[idx].copy())

    def with_features(self, X: np.ndarray) -> "VisitTable":
        return VisitTable(list(self.subject_ids), self.visits.copy(),
                          np.asarray(X, dtype=np.float64), self.Y.copy())


def _parse_cell(raw: str, where: str) -> float:
    raw = raw.strip()
    if raw == "" or raw.upper() == "NA":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"non-numeric value {raw!r} at {where}") from None


def _validate_one_hot(X: np.ndarray) -> None:
    for block in schema.ONE_HOT_INDEX_BLOCKS:
        sub = X[:, block]
        observed = ~np.isnan(sub)
        vals = sub[observed]
        if vals.size and not np.all((vals == 0.0) | (vals == 1.0)):
            raise ValueError("one-hot columns must be 0 or 1")
        ones = np.nansum(sub, axis=1)
        if np.any(ones > 1.0 + 1e-12):
            raise ValueError("one-hot block has more than one active column")


def load_visits_csv(path: str) -> VisitTable:
    """Read the visit CSV. Strict header, unique (subject, visit), numeric cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != schema.CSV_HEADER:
            raise ValueError(f"{path}: header mismatch, expected "
                             f"{len(schema.CSV_HEADER)} canonical columns")
        rows = list(reader)

    subject_ids: list[str] = []
    visits: list[int] = []
    feats: list[list[float]] = []
    targs: list[list[float]] = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(schema.CSV_HEADER):
            raise ValueError(f"{path}:{lineno}: expected {len(schema.CSV_HEADER)} "
                             f"cells, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise ValueError(f"{path}:{lineno}: empty subject_id")
        try:
            visit = int(row[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: visit must be an integer") from None
        key = (sid, visit)
        if key in seen:
            raise ValueError(f"{path}:{lineno}: duplicate visit {visit} for {sid}")
        seen.add(key)
        subject_ids.append(sid)
        visits.append(visit)
        feats.append([_parse_cell(c, f"{path}:{lineno}:{name}")
                      for c, name in zip(row[2:2 + schema.N_FEATURES],
                                         schema.FEATURE_COLUMNS)])
        targs.append([_parse_cell(c, f"{path}:{lineno}:{name}")
                      for c, name in zip(row[2 + schema.N_FEATURES:],
                                         schema.TARGET_COLUMNS)])

    order = sorted(range(len(subject_ids)), key=lambda i: (subject_ids[i], visits[i]))
    table = VisitTable([subject_ids[i] for i in order],
                       np.array([visits[i] for i in order], dtype=np.int64),
                       np.array([feats[i] for i in order], dtype=np.float64),
                       np.array([targs[i] for i in order], dtype=np.float64))
    _validate_one_hot(table.X)
    return table


def _fmt(x: float) -> str:
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def write_visits_csv(table: VisitTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema.CSV_HEADER)
        for i in range(len(table)):
            row = [table.subject_ids[i], str(int(table.visits[i]))]
            row += [_fmt(v) for v in table.X[i]]
            row += [_fmt(v) for v in table.Y[i]]
            writer.writerow(row)


@dataclass
class Windows:
    """w input visits plus the following visit's targets, one row per window."""
    X: np.ndarray          # (n, w, 44)
    y: np.ndarray          # (n, 3)
    subjects: list[str]
    starts: np.ndarray     # per-window start position in the subject's sequence

    def __len__(self) -> int:
        return self.X.shape[0]


def visit_runs(table: VisitTable, length: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every run of `length` consecutive visits of one subject.

    Returns (rows, seq, start): rows is (n, length) table row indices, seq
    each run's subject as a position in `unique_subjects()`, and start the
    run's first position in that subject's visit-ordered sequence. Runs are
    ordered by subject, then start; visits of one subject are ordered by
    visit number, ties in table order.
    """
    check_int(length, "length", 1)
    code: dict[str, int] = {}     # first-appearance position
    subject = np.array([code.setdefault(s, len(code)) for s in table.subject_ids],
                       dtype=np.int64)
    order = np.lexsort((table.visits, subject))
    sorted_subject = subject[order]
    m = max(len(order) - length + 1, 0)
    first = np.flatnonzero(sorted_subject[length - 1:length - 1 + m]
                           == sorted_subject[:m])
    rows = order[first[:, None] + np.arange(length)]
    seq = sorted_subject[first]
    start = first - np.searchsorted(sorted_subject, seq)
    return rows, seq, start


def build_windows(table: VisitTable, w: int = 3) -> Windows:
    """Slide a length-(w+1) window over each subject's visit-ordered sequence.

    A subject with v visits yields max(0, v - w) windows; windows whose
    target row has any missing target are dropped.
    """
    check_int(w, "w", 1)
    rows, seq, start = visit_runs(table, w + 1)
    keep = ~np.isnan(table.Y[rows[:, w]]).any(axis=1)
    rows, seq = rows[keep], seq[keep]
    subjects = table.unique_subjects()
    return Windows(table.X[rows[:, :w]], table.Y[rows[:, w]],
                   [subjects[i] for i in seq], start[keep])


def subject_kfold(subjects: list[str], k: int = 5, seed: int = 0) -> list[list[str]]:
    """Deal shuffled subjects round-robin into k folds (sizes within 1)."""
    check_int(k, "k", 2)
    if len(subjects) < k:
        raise ValueError(f"need at least {k} subjects for {k} folds")
    order = list(subjects)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    folds: list[list[str]] = [[] for _ in range(k)]
    for i, s in enumerate(order):
        folds[i % k].append(s)
    return folds


def train_val_split(subjects: list[str], val_frac: float = 0.2,
                    seed: int = 0) -> tuple[list[str], list[str]]:
    """Subject-level split; both sides non-empty."""
    check_number(val_frac, "val_frac", 0, 1, lo_open=True, hi_open=True)
    if len(subjects) < 2:
        raise ValueError("need at least 2 subjects to split")
    order = list(subjects)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    n_val = min(max(1, int(round(val_frac * len(order)))), len(order) - 1)
    return order[n_val:], order[:n_val]


# Query rows per block of `_nearest`. With OpenBLAS the distance GEMM takes
# 7.9 ms per 640 query rows against 2,048 train rows in 16-row blocks and
# 4.7 ms in 64-row blocks, and whole transforms ran no faster in 128-row
# blocks. Each (block, n_train) temporary takes 1 MB at 2,048 train rows,
# whatever the number of query rows.
_BLOCK = 64


def _train_operands(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(t_obs, R, t_sq_max) of `_nearest` for the standardized train matrix T.

    Built by the first transform that imputes and kept until the next fit,
    not once per transform: rebuilding the 2 MB R (at 2,048 train rows) and
    its intermediates on every call grew and trimmed the heap each time,
    about 1,500 page faults per score-missing transform in some processes
    and none in others.
    """
    t_obs = ~np.isnan(T)
    T0 = np.where(t_obs, T, 0.0)
    with np.errstate(over="ignore"):
        T0_sq = T0 * T0
        t_sq_max = T0_sq.sum(axis=1).max()
        R = np.hstack([T0_sq, t_obs, T0])
    return t_obs, R, t_sq_max


def _nearest(Q: np.ndarray, t_obs: np.ndarray, R: np.ndarray, t_sq_max: float,
             k: int) -> np.ndarray:
    """The k nearest train rows of each query row, as (len(Q), k) indices.

    t_obs is the observed mask of the standardized train matrix, R stacks
    T0 * T0, t_obs and T0 side by side, where T0 is that matrix with NaN
    set to 0, and t_sq_max is the largest squared norm of a row of T0 (see
    `_train_operands`). The distance is the squared Euclidean distance
    over co-observed features, rows with no co-observed feature are not
    neighbours, ties go to the lower train index, and a row with fewer
    than k neighbours is padded with -1. The neighbours are exactly those
    of a stable sort of every train row by `((T0 - q0) * co) ** 2` summed
    with einsum: one GEMM expansion shortlists the candidates, and that
    arithmetic orders them.

    Rounding, u = eps/2, for a query q and a train row t with s = |t|^2 +
    |q|^2. The GEMM's nonzero terms are t^2, q^2 and -2q * t over
    co-observed features (the factor -2 is exact), each rounded once,
    with absolute values summing to at most 2s, so the expansion is within
    3n u * 2s of the exact distance, to first order, in any summation
    order. The einsum value is within
    (n + 2)u * 2s, as (t - q)^2 <= 2(t^2 + q^2). So the two differ by at
    most e = (4n + 3) eps * s, the extra eps * s covering second-order
    terms and the rounding of the threshold below, plus `tiny` for the 4n
    products that may underflow. e grows with s, which t_sq_max bounds for
    every train row; it stays small, as a fitted standardized train value
    is at most sqrt(n_train - 1) in magnitude (Samuelson's inequality).
    Every product and partial sum is at most 2s in magnitude, so where 2s
    could overflow, e is inf and every row is a candidate.
    """
    n_train, n = t_obs.shape
    T0 = R[:, 2 * n:]
    q_obs = ~np.isnan(Q)
    Q0 = np.where(q_obs, Q, 0.0)
    m = min(k, n_train)
    # Overflow needs no warning: NaN compares False, so such a row stays a
    # candidate, and the re-check never makes an inf distance a neighbour.
    with np.errstate(over="ignore", invalid="ignore"):
        Q0_sq = Q0 * Q0
        # sum over co-observed features of t^2 + q^2 - 2tq; every term of a
        # row sharing no observed feature with the query is exactly 0
        d = np.hstack([q_obs, Q0_sq, -2.0 * Q0]) @ R.T
        part = np.partition(d, m - 1, axis=1)
        kth = part[:, m - 1]
        # A row with no co-observed feature lowers kth only from among the
        # m smallest, as a 0 (a NaN from overflow sorts last). Where one
        # may, count co-observed features exactly and take the kth again
        # without those rows.
        lone = np.flatnonzero((part[:, :m] == 0.0).any(axis=1))
        if lone.size:
            has_co = q_obs[lone] @ R[:, n:2 * n].T > 0.0
            kth[lone] = np.partition(np.where(has_co, d[lone], np.inf), m - 1,
                                     axis=1)[:, m - 1]
        # The m rows at or below kth are within e of their einsum distance,
        # so the k nearest by einsum are all within kth + 2e.
        s = t_sq_max + Q0_sq.sum(axis=1)
        fp = np.finfo(np.float64)
        tiny = 4 * n * fp.smallest_subnormal
        e = (4 * n + 3) * fp.eps * s + tiny
        e[~(s <= fp.max / 4)] = np.inf
        cand = ~(d > (kth + 2.0 * e)[:, None])
        if lone.size:   # so that a block of all-NaN queries shortlists nothing
            cand[lone] &= has_co
        r, c = np.divmod(np.flatnonzero(cand), n_train)
        co = t_obs[c] & q_obs[r]
        diff = (T0[c] - Q0[r]) * co
        dist = np.einsum("ij,ij->i", diff, diff)
    ok = co.any(axis=1) & np.isfinite(dist)
    r, c, dist = r[ok], c[ok], dist[ok]
    order = np.lexsort((c, dist, r))    # by query row, distance, train row
    r, c = r[order], c[order]
    rank = np.arange(r.size) - np.searchsorted(r, r)
    first = rank < k
    nb = np.full((Q.shape[0], k), -1)
    nb[r[first], rank[first]] = c[first]
    return nb


def _neighbour_means(T: np.ndarray, nb: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per missing cell, the mean of column j[i] of T over the rows nb[i]
    (-1 padded) that observe it, or 0.0 (the standardized column mean)
    where none does; each mean bitwise equal to `.mean()` of those values
    in neighbour order."""
    vals = T[nb, j[:, None]]
    seen = (nb >= 0) & ~np.isnan(vals)
    count = seen.sum(axis=1)
    # observed values first, in neighbour order
    vals = np.take_along_axis(vals, np.argsort(~seen, axis=1, kind="stable"), axis=1)
    means = np.zeros(j.size)
    for c in np.unique(count[count > 0]):
        # rows of c contiguous values: each sums in the order of a 1-d mean
        cells = count == c
        means[cells] = vals[cells, :c].mean(axis=1)
    return means


class Preprocessor:
    """Standardize (observed train entries, population std) then KNN-impute.

    Distances are Euclidean over mutually observed standardized features,
    with ties to the lower train row (`_nearest`); each missing entry
    becomes the mean of that feature over the k nearest train rows that
    observe it, falling back to the train column mean (zero in standardized
    space). All state is a pure function of the rows passed to fit().

    A column whose train std is at most `std_floor` gets scale 1.0: it maps
    to x - mean, so a value unseen in training stays on the raw scale.
    """

    def __init__(self, k: int = 5, std_floor: float = 1e-8):
        check_int(k, "k", 1)
        check_number(std_floor, "std_floor", 0)
        self.k = k
        self.std_floor = std_floor
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None
        self.train_std_: np.ndarray | None = None
        self._knn: tuple | None = None     # `_train_operands` of train_std_

    def fit(self, X: np.ndarray) -> "Preprocessor":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != schema.N_FEATURES:
            raise ValueError(f"expected (n, {schema.N_FEATURES}) features")
        if X.shape[0] < 1:
            raise ValueError("cannot fit on an empty table")
        observed = ~np.isnan(X)
        if not np.all(observed.any(axis=0)):
            missing_cols = [schema.FEATURE_COLUMNS[j]
                            for j in np.where(~observed.any(axis=0))[0]]
            raise ValueError(f"columns never observed in train rows: {missing_cols}")
        with np.errstate(invalid="ignore"):
            self.mean_ = np.nanmean(X, axis=0)
            self.std_ = np.nanstd(X, axis=0)
        self.std_ = np.where(self.std_ > self.std_floor, self.std_, 1.0)
        self.train_std_ = (X - self.mean_) / self.std_
        self._knn = None
        return self

    def _check_fitted(self):
        if self.mean_ is None:
            raise ValueError("Preprocessor is not fitted")

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != schema.N_FEATURES:
            raise ValueError(f"expected (n, {schema.N_FEATURES}) features")
        Z = (X - self.mean_) / self.std_
        nan_rows = np.where(np.isnan(Z).any(axis=1))[0]
        if nan_rows.size == 0:
            return Z
        if self._knn is None:
            self._knn = _train_operands(self.train_std_)
        nb = np.concatenate([_nearest(Z[nan_rows[s:s + _BLOCK]], *self._knn, self.k)
                             for s in range(0, nan_rows.size, _BLOCK)])
        r, j = np.nonzero(np.isnan(Z[nan_rows]))
        Z[nan_rows[r], j] = _neighbour_means(self.train_std_, nb[r], j)
        return Z

    def save(self, path) -> None:
        """Full fitted state to .npz; the KNN step needs the train matrix."""
        self._check_fitted()
        np.savez(path, k=self.k, std_floor=self.std_floor, mean=self.mean_,
                 std=self.std_, train_std=self.train_std_)

    @classmethod
    def load(cls, path) -> "Preprocessor":
        """Read a save() file, refusing one whose state transform cannot use."""
        with np.load(path) as z:
            state = {key: z[key] for key in z.files}
        missing = {"k", "std_floor", "mean", "std", "train_std"} - set(state)
        if missing:
            raise ValueError(f"preprocessor file {path} lacks {sorted(missing)}")
        k, mean, std, T = (state[key] for key in ("k", "mean", "std", "train_std"))
        nf = schema.N_FEATURES
        for usable, need in (
                (mean.shape == (nf,) and np.all(np.isfinite(mean)),
                 f"mean must be {nf} finite values"),
                (std.shape == (nf,) and np.all(np.isfinite(std) & (std > 0)),
                 f"std must be {nf} finite values > 0"),
                (T.ndim == 2 and T.shape[0] >= 1 and T.shape[1] == nf,
                 f"train_std must have shape (n >= 1, {nf})"),
                (k.shape == () and k.dtype.kind in "iu" and k >= 1,
                 "k must be an integer >= 1")):
            if not usable:
                raise ValueError(f"preprocessor file {path}: {need}")
        pre = cls(k=int(k), std_floor=float(state["std_floor"]))
        pre.mean_, pre.std_, pre.train_std_ = mean, std, T
        return pre


@dataclass
class FoldData:
    """One fold's train/val/test windows, cut from its imputed `table`."""
    train: Windows
    val: Windows
    test: Windows
    preprocessor: Preprocessor
    table: VisitTable      # every row, imputed by the train-fitted preprocessor
    train_subjects: list[str]
    val_subjects: list[str]
    test_subjects: list[str]


def materialize_fold(table: VisitTable, test_subjects: list[str], seed: int = 0,
                     w: int = 3, val_frac: float = 0.2) -> FoldData:
    """Fit preprocessing (the default k = 5 of `Preprocessor`) on the train
    split only, impute the whole table once, and window each split of it: a
    row's imputation reads only that row and the train rows."""
    test_set = set(test_subjects)
    pool = [s for s in table.unique_subjects() if s not in test_set]
    if not pool:
        raise ValueError("no training subjects left outside the test fold")
    tr_subjects, val_subjects = train_val_split(pool, val_frac=val_frac, seed=seed)

    pre = Preprocessor().fit(table.subset_subjects(tr_subjects).X)
    imputed = table.with_features(pre.transform(table.X))
    tr, va, te = (build_windows(imputed.subset_subjects(s), w=w)
                  for s in (tr_subjects, val_subjects, test_subjects))
    return FoldData(tr, va, te, pre, imputed, tr_subjects, val_subjects,
                    list(test_subjects))
