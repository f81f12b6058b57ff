"""The result types are immutable value types."""

import importlib
import pkgutil

import pytest

import transgress

from conftest import cached_root_system
from transgress import (
    LieType,
    build_e2,
    e3_ranks,
    group_spec,
    parse_group_spec,
)
from transgress.fixtures import FixtureResult


def _values():
    rs = cached_root_system("A2")
    g = parse_group_spec("A2:adj")
    page = build_e2(g, coefficients=3)
    return [
        FixtureResult("name", True, ""),
        g,
        rs.lie_type,
        rs,
        page,
        e3_ranks(page),
    ]


VALUES = _values()


def _package_result_types():
    """Every public NamedTuple class defined in the package's modules."""
    out = set()
    for info in pkgutil.iter_modules(transgress.__path__):
        module = importlib.import_module(f"transgress.{info.name}")
        out |= {
            cls for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, tuple)
            and hasattr(cls, "_fields") and cls.__module__ == module.__name__
            and not cls.__name__.startswith("_")
        }
    return out


def test_every_result_type_is_covered():
    assert len({type(v) for v in VALUES}) == len(VALUES)
    assert {type(v) for v in VALUES} == _package_result_types()


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: LieType("B", 3),
        lambda: group_spec(cached_root_system("B3"), ((0, 0, 1),)),
    ],
    ids=["LieType", "GroupSpec"],
)
def test_equal_by_value_and_usable_as_dict_keys(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"


def test_lie_type_keywords_and_str():
    t = LieType(family="E", rank=8)
    assert t == LieType("E", 8) == ("E", 8)
    assert str(t) == "E8"
    assert repr(t) == "LieType(family='E', rank=8)"


def test_e2_page_repr_leaves_out_the_cells_and_d2():
    page = build_e2(parse_group_spec("B3:sc"))
    assert any(row for rows in page.d2.values() for row in rows)
    assert repr(page) == (
        f"E2Page(group={page.group!r}, coefficients=None, max_total_degree=21)"
    )
