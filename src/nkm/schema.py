"""Canonical feature schema: 44 features in 5 modality groups, 3 targets.

Column order is the wire format; everything downstream (CSV, windows,
encoders, importance reports) indexes into FEATURE_COLUMNS.
"""
from __future__ import annotations

MRI_NETWORKS = [f"MRI_NET{i:02d}" for i in range(1, 18)]

GROUP_COLUMNS: dict[str, list[str]] = {
    "genetic": ["APOE4"],
    "csf": ["CSF_ABETA", "CSF_TAU", "CSF_PTAU"],
    "pet": ["PET_FDG", "PET_PIB", "PET_AV45"],
    "mri": MRI_NETWORKS + ["MRI_ICV"],
    "demo": ["DEMO_AGE", "DEMO_EDUCATION",
             "DEMO_SEX_F", "DEMO_SEX_M",
             "DEMO_MARRY_MARRIED", "DEMO_MARRY_WIDOWED",
             "DEMO_MARRY_DIVORCED", "DEMO_MARRY_NEVER",
             "DEMO_RACE_WHITE", "DEMO_RACE_BLACK", "DEMO_RACE_ASIAN",
             "DEMO_RACE_MULTI", "DEMO_RACE_OTHER",
             "DEMO_SITE01", "DEMO_SITE02", "DEMO_SITE03",
             "DEMO_SITE04", "DEMO_SITE05", "DEMO_SITE06"],
}

GROUP_NAMES = list(GROUP_COLUMNS)
FEATURE_COLUMNS: list[str] = [c for g in GROUP_NAMES for c in GROUP_COLUMNS[g]]
TARGET_COLUMNS = ["MMSE", "CDRSB", "ADAS13"]
CSV_HEADER = ["subject_id", "visit"] + FEATURE_COLUMNS + TARGET_COLUMNS

N_FEATURES = len(FEATURE_COLUMNS)
N_TARGETS = len(TARGET_COLUMNS)

# mutually exclusive one-hot blocks inside the demo group
ONE_HOT_BLOCKS: list[list[str]] = [
    ["DEMO_SEX_F", "DEMO_SEX_M"],
    ["DEMO_MARRY_MARRIED", "DEMO_MARRY_WIDOWED", "DEMO_MARRY_DIVORCED",
     "DEMO_MARRY_NEVER"],
    ["DEMO_RACE_WHITE", "DEMO_RACE_BLACK", "DEMO_RACE_ASIAN",
     "DEMO_RACE_MULTI", "DEMO_RACE_OTHER"],
    ["DEMO_SITE01", "DEMO_SITE02", "DEMO_SITE03", "DEMO_SITE04",
     "DEMO_SITE05", "DEMO_SITE06"],
]

# numeric columns eligible for missingness masking in the generator; one-hot
# blocks and APOE4 stay observed so their invariants survive
MASKABLE_COLUMNS = (GROUP_COLUMNS["csf"] + GROUP_COLUMNS["pet"]
                    + GROUP_COLUMNS["mri"] + ["DEMO_AGE", "DEMO_EDUCATION"])


def feature_index(name: str) -> int:
    return FEATURE_COLUMNS.index(name)


def group_slices(groups: list[str] | None = None) -> dict[str, slice]:
    """Column slices into FEATURE_COLUMNS for the requested groups."""
    groups = GROUP_NAMES if groups is None else groups
    out: dict[str, slice] = {}
    for g in groups:
        if g not in GROUP_COLUMNS:
            raise ValueError(f"unknown feature group {g!r}")
        first = feature_index(GROUP_COLUMNS[g][0])
        out[g] = slice(first, first + len(GROUP_COLUMNS[g]))
    return out


ONE_HOT_INDEX_BLOCKS = [[FEATURE_COLUMNS.index(c) for c in block]
                        for block in ONE_HOT_BLOCKS]

assert N_FEATURES == 44
assert sum(len(b) for b in ONE_HOT_BLOCKS) == 17
