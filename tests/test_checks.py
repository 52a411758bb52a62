"""The shared refusal policy: every config field and public count parameter
refuses a value of the wrong kind with a ValueError that names it, and the
checkers agree with a plain oracle."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nkm.analysis import (feature_importance, geometric_bound,
                          rollout_latents, verify_bound, verify_descent)
from nkm.checks import check_bool, check_choice, check_int, check_number
from nkm.data import (Preprocessor, build_windows, subject_kfold,
                      train_val_split, visit_runs)
from nkm.edmd import EdmdConfig
from nkm.model import AblationFlags, ArchConfig
from nkm.optim import OptimConfig
from nkm.synthetic import SyntheticConfig
from nkm.training import LossConfig

# (callable taking the probed value, the name its refusal must start with,
# the kind of value it takes). Entry points get None for their data: the
# value is refused before the data is read.
_FIELDS = [
    *[(lambda v, f=f: ArchConfig(**{f: v}), f, "int")
      for f in ("d_z", "n_heads", "n_refine_blocks", "n_decoder_blocks",
                "window")],
    *[(lambda v, f=f: ArchConfig(**{f: v}), f, "number")
      for f in ("dropout", "sigma_init", "rho_init")],
    *[(lambda v, f=f: AblationFlags(**{f: v}), f, "bool")
      for f in ("no_control", "no_temporal_attention",
                "no_feature_attention", "no_spectral_reg")],
    *[(lambda v, f=f: OptimConfig(**{f: v}), f, "int")
      for f in ("batch_size", "epochs", "plateau_patience",
                "early_stop_patience")],
    *[(lambda v, f=f: OptimConfig(**{f: v}), f, "number")
      for f in ("lr", "eps", "weight_decay", "clip_norm", "plateau_factor")],
    (lambda v: OptimConfig(betas=(v, 0.999)), "betas[0]", "number"),
    *[(lambda v, f=f: LossConfig(**{f: v}), f, "number")
      for f in ("lambda_koop", "eta", "rho")],
    *[(lambda v, f=f: EdmdConfig(**{f: v}), f, "int")
      for f in ("n_centers", "seed")],
    *[(lambda v, f=f: EdmdConfig(**{f: v}), f, "number")
      for f in ("alpha", "readout_alpha")],
    *[(lambda v, f=f: EdmdConfig(**{f: v}), f, "bool")
      for f in ("include_identity", "include_constant")],
    *[(lambda v, f=f: SyntheticConfig(**{f: v}), f, "int")
      for f in ("n_subjects", "visits_per_subject", "latent_dim",
                "n_noise_mri", "observed_rank")],
    *[(lambda v, f=f: SyntheticConfig(**{f: v}), f, "number")
      for f in ("noise_sd", "missing_rate", "drift_sd", "base_drift_scale",
                "target_noise_sd")],
    (lambda v: Preprocessor(k=v), "k", "int"),
    (lambda v: Preprocessor(std_floor=v), "std_floor", "number"),
    (lambda v: visit_runs(None, v), "length", "int"),
    (lambda v: build_windows(None, v), "w", "int"),
    (lambda v: subject_kfold(None, k=v), "k", "int"),
    (lambda v: train_val_split(None, val_frac=v), "val_frac", "number"),
    (lambda v: verify_bound(None, None, tau_max=v), "tau_max", "int"),
    (lambda v: geometric_bound(0.1, 0.5, v), "tau", "int"),
    (lambda v: rollout_latents(None, None, steps=v), "steps", "int"),
    (lambda v: feature_importance(None, runs=v), "runs", "int"),
    (lambda v: feature_importance(None, runs=1, test_frac=v), "test_frac",
     "number"),
    (lambda v: verify_descent(None, None, iters=v), "iters", "int"),
    (lambda v: verify_descent(None, None, theta_step=v), "theta_step",
     "number"),
    (lambda v: verify_descent(None, None, k_step=v), "k_step", "number"),
]

# a float for a count, a bool, a string and NaN; a flag also refuses an int
_PROBES = {"int": [2.5, True, "3", math.nan],
           "number": [True, "0.5", math.nan],
           "bool": [1, "no", math.nan]}


@pytest.mark.parametrize("build,name,value", [
    pytest.param(build, name, value, id=f"{name}={value!r}")
    for build, name, kind in _FIELDS for value in _PROBES[kind]])
def test_a_value_of_the_wrong_kind_is_refused_naming_its_field(build, name,
                                                               value):
    # at the parent OptimConfig(epochs=2.5), EdmdConfig(n_centers=2.5) and
    # SyntheticConfig(noise_sd=True) were accepted, LossConfig(rho="x") and
    # verify_bound(tau_max=2.5) raised TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        build(value)


def _plain_int(v, lo):
    return (type(v) is int or isinstance(v, np.integer)) and (
        lo is None or v >= lo)


def _plain_number(v, lo, hi, lo_open, hi_open):
    if not (type(v) in (int, float) or isinstance(v, (np.integer,
                                                      np.floating))):
        return False
    if isinstance(v, (float, np.floating)) and not -math.inf < v < math.inf:
        return False
    above = lo is None or v > lo or (v == lo and not lo_open)
    below = hi is None or v < hi or (v == hi and not hi_open)
    return above and below


_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-100, 100).map(np.int8),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_))
_BOUNDS = st.one_of(st.none(), st.integers(-3, 3),
                    st.floats(-3, 3, allow_nan=False))


def _refuses(check, *args) -> str | None:
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


@given(v=_VALUES, lo=st.one_of(st.none(), st.integers(-3, 3)))
def test_check_int_matches_a_plain_oracle(v, lo):
    message = _refuses(check_int, v, "n", lo)
    assert (message is None) == _plain_int(v, lo)
    if message is not None:
        bound = "" if lo is None else f" >= {lo}"
        assert message == f"n must be an integer{bound}, got {v!r}"


@given(v=_VALUES, lo=_BOUNDS, width=st.one_of(st.none(), st.floats(0, 5)),
       lo_open=st.booleans(), hi_open=st.booleans())
def test_check_number_matches_a_plain_oracle(v, lo, width, lo_open, hi_open):
    # hi is given only with lo; width 0 makes a one-point or empty range
    hi = None if lo is None or width is None else lo + width
    message = _refuses(check_number, v, "x", lo, hi, lo_open, hi_open)
    assert (message is None) == _plain_number(v, lo, hi, lo_open, hi_open)
    if message is not None:
        assert message.startswith("x must be a ")
        assert message.endswith(f", got {v!r}")


@pytest.mark.parametrize("v,lo,hi,lo_open,hi_open,ok", [
    (math.inf, None, None, False, False, False),
    (-math.inf, 0, None, False, False, False),
    (10**400, 0, None, False, False, True),
    (0, 0, None, True, False, False), (0, 0, None, False, False, True),
    (1, 0, 1, False, True, False), (1, 0, 1, False, False, True),
    (np.float32(0.5), 0, 1, True, True, True), (np.int64(3), 0, None, True,
                                                False, True)])
def test_check_number_edges(v, lo, hi, lo_open, hi_open, ok):
    assert (_refuses(check_number, v, "x", lo, hi, lo_open, hi_open)
            is None) == ok


@pytest.mark.parametrize("lo,hi,lo_open,hi_open,need", [
    (None, None, False, False, "a finite number"),
    (0, None, False, False, "a finite number >= 0"),
    (0, None, True, False, "a finite number > 0"),
    (0, 1, False, True, "a number in [0, 1)"),
    (0, 1, True, False, "a number in (0, 1]")])
def test_check_number_message_states_the_bounds(lo, hi, lo_open, hi_open,
                                                need):
    assert (_refuses(check_number, "s", "x", lo, hi, lo_open, hi_open)
            == f"x must be {need}, got 's'")


@given(v=_VALUES)
def test_check_bool_takes_only_true_and_false(v):
    assert (_refuses(check_bool, v, "flag") is None) == (v is True
                                                         or v is False)


def test_check_choice_names_the_choices():
    check_choice("b", "mode", ("a", "b"))
    assert (_refuses(check_choice, "c", "mode", ("a", "b"))
            == "mode must be 'a' or 'b', got 'c'")
