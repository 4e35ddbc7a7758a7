"""Tests for the package namespace: lazily loaded exports and their homes."""

from __future__ import annotations

import importlib

import pytest

import matchplay
from matchplay import analytic, core

from conftest import fresh_python


def test_every_export_is_its_home_module_object():
    for name in matchplay.__all__:
        home = importlib.import_module(f"matchplay.{matchplay._HOME[name]}")
        value = getattr(matchplay, name)
        assert value is getattr(home, name)
        # classes and functions are defined where the table says they live
        assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from matchplay import *", namespace)
    assert set(matchplay.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(matchplay, name) for name in matchplay.__all__)
    assert set(matchplay.__all__) <= set(dir(matchplay))
    assert matchplay.__all__ == sorted(set(matchplay.__all__))
    assert matchplay.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matchplay.no_such_name
    assert not hasattr(matchplay, "require_integer")


def test_analytic_reexports_the_limits_from_core():
    limits = ("AsymptoticVerdict", "Regime", "cat_limit", "hitting_probability", "optimal_limit")
    for name in limits:
        assert getattr(analytic, name) is getattr(core, name)


def test_submodules_load_on_attribute_access():
    # nothing imports matchplay.dp in this fresh process but the attribute lookup
    code = "import matchplay; print(matchplay.dp.solve.__module__)"
    assert fresh_python(code) == "matchplay.dp\n"
