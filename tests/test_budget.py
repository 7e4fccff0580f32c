"""The one Budget: its defaults everywhere and its limits in errors."""

import importlib
import inspect
import pkgutil

import pytest

import catdb
from catdb.kernel import Var, subst_map
from catdb.rewrite import (
    DEFAULT_BUDGET, Budget, BudgetExceeded, RewriteSystem, complete,
)
from catdb.schema import compile_schema


def budget_parameters():
    """{name: parameter} for every function and class in catdb that takes
    a `budget`."""
    out = {}
    for info in pkgutil.iter_modules(catdb.__path__):
        mod = importlib.import_module(f"catdb.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                obj = obj.__init__
            if inspect.isfunction(obj):
                param = inspect.signature(obj).parameters.get("budget")
                if param is not None:
                    out[name] = param
    return out


def test_every_budget_parameter_defaults_to_the_default_budget():
    params = budget_parameters()
    assert set(params) == {
        "complete", "RewriteSystem", "GroundClosure", "compile_schema",
        "chase", "saturate", "saturate_entity_category",
        "discrete_opfibration_lifts", "is_discrete_opfibration", "pi",
        "_pushforward", "collage_of_bimodule", "compose_bimodules",
        "lambda_", "gamma", "crosscheck_migration"}
    for name, param in params.items():
        assert param.default is DEFAULT_BUDGET, name


def test_default_limits():
    assert DEFAULT_BUDGET == Budget(critical_pairs=10_000,
                                    rewrite_steps=100_000,
                                    closure_steps=100_000, rows=10_000)


def test_compile_schema_refuses_an_incomplete_entity_system(ws):
    with pytest.raises(BudgetExceeded, match=r"^schema completion: "
                       r"critical_pairs budget \(3\) exhausted$"):
        compile_schema(ws.schemas["L"].presentation,
                       Budget(critical_pairs=3))


def test_rewriting_names_rewrite_steps(grp_ws):
    rs = complete(grp_ws.theories["Grp"])
    rule = rs.rules[0]
    assert repr(rule) == "*(1, x) ~> x"
    tight = RewriteSystem(rs.rules, rs.order, rs.status, rs.unoriented,
                          Budget(rewrite_steps=1))
    twice = subst_map(rule.lhs, {"x": rule.lhs})  # 1 * (1 * x): two steps
    with pytest.raises(BudgetExceeded, match=r"^rewriting: rewrite_steps "
                       r"budget \(1\) exhausted$"):
        tight.normalize(twice)
    assert rs.normalize(twice) == Var("x")
