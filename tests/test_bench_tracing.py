"""The traced benchmark run patches nkm functions and methods by name; a
renamed or deleted target must fail here, not in the traced run."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for mod_name, _, _ in module.TARGETS:
        importlib.import_module(f"nkm.{mod_name}")
    return module


def _bindings(targets) -> dict[tuple, object]:
    """Every place a target is looked up: its class dict for a method, each
    loaded nkm module that holds the name for a function."""
    loaded = [m for n, m in list(sys.modules.items())
              if n == "nkm" or n.startswith("nkm.")]
    out = {}
    for mod_name, attr, _ in targets:
        module = sys.modules[f"nkm.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            out[cls, meth] = vars(cls)[meth]
            continue
        original = getattr(module, attr)
        for mod in loaded:
            if getattr(mod, attr, None) is original:
                out[mod, attr] = original
    return out


def test_every_target_resolves(tracing):
    unresolved = []
    for mod_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"nkm.{mod_name}")
        *cls_name, name = attr.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0], None)
        if owner is None or not callable(vars(owner).get(name)):
            unresolved.append(f"nkm.{mod_name}.{attr}")
    assert unresolved == []


def test_install_then_uninstall_restores_every_target(tracing):
    before = _bindings(tracing.TARGETS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unpatched = [key for key, fn in before.items()
                     if vars(key[0])[key[1]] is fn]
    finally:
        tracer.uninstall()
    assert unpatched == []
    changed = [key for key, fn in before.items()
               if vars(key[0])[key[1]] is not fn]
    assert changed == []
