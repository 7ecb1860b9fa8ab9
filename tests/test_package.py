"""The package's export list matches what it binds."""

from __future__ import annotations

import types

import rulesmith


def test_all_lists_exactly_the_public_names_and_each_resolves():
    public = {
        name for name, value in vars(rulesmith).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(rulesmith.__all__) == public
    assert len(rulesmith.__all__) == len(public)  # no entry twice
    namespace: dict = {}
    exec("from rulesmith import *", namespace)  # a stale entry raises AttributeError here
    assert set(namespace) - {"__builtins__"} == public
