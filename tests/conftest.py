"""Marks the acceptance criteria that run for minutes as `slow`."""
from __future__ import annotations

import pytest

SLOW = {"test_criterion_08_pipeline_quality"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW:
            item.add_marker(pytest.mark.slow)
