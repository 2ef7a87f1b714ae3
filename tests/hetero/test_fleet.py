"""--node-types grammar and fleet cost accounting tests."""

import pytest

from repro.errors import HeteroError
from repro.hetero.fleet import (
    ACCEL_NODE_COST_UNITS,
    FULL_NODE_COST_UNITS,
    class_counts,
    fleet_cost,
    format_node_types,
    has_accel,
    parse_node_types,
    slot_weight,
)


class TestGrammar:
    def test_counts_expand_in_order(self):
        assert parse_node_types("2full+1accel") == \
            ("full", "full", "accel")

    def test_count_defaults_to_one(self):
        assert parse_node_types("full+accel") == ("full", "accel")

    def test_whitespace_tolerated(self):
        assert parse_node_types(" 2full + 1accel ") == \
            ("full", "full", "accel")

    @pytest.mark.parametrize("bad", [
        "", "   ", "2turbo", "full+", "-1full", "2full+0accel",
        "fullaccel", "2 full",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(HeteroError):
            parse_node_types(bad)

    def test_all_accel_fleet_rejected(self):
        """Accelerators are GET-only: a fleet with no full node could
        not serve a single write."""
        with pytest.raises(HeteroError, match="full"):
            parse_node_types("3accel")

    def test_format_is_canonical(self):
        classes = parse_node_types("full+accel+full")
        assert format_node_types(classes) == "2full+1accel"
        assert format_node_types(parse_node_types("3full")) == "3full"


class TestFleetAccounting:
    def test_class_counts(self):
        assert class_counts(("full", "accel", "full")) == \
            {"full": 2, "accel": 1}

    def test_has_accel(self):
        assert has_accel(("full", "accel"))
        assert not has_accel(("full", "full"))

    def test_fleet_cost_sums_class_units(self):
        assert fleet_cost(("full", "full", "accel")) == \
            2.0 + ACCEL_NODE_COST_UNITS
        assert fleet_cost(("full",) * 3) == 3.0

    def test_slot_weight_favors_the_accel_pipeline(self):
        assert slot_weight("full") == 1
        assert slot_weight("accel") > 1

    def test_accel_costs_a_fraction_of_a_full_node(self):
        assert 0 < ACCEL_NODE_COST_UNITS < FULL_NODE_COST_UNITS
