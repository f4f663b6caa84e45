"""Metal layers and the calibrated 45 nm stack."""

import pytest

from repro.tech.operating_point import OP_CRYO, OP_ROOM
from repro.tech.metal import FREEPDK45_STACK, MetalLayer
from repro.tech.resistivity import CryoResistivityModel


class TestStackStructure:
    def test_three_populations(self):
        assert set(FREEPDK45_STACK.layers) == {"local", "semi_global", "global"}

    def test_properties_alias_layers(self):
        assert FREEPDK45_STACK.local.name == "local"
        assert FREEPDK45_STACK.semi_global.name == "semi_global"
        assert FREEPDK45_STACK.global_.name == "global"

    def test_unknown_layer_raises_with_choices(self):
        with pytest.raises(KeyError, match="semi_global"):
            FREEPDK45_STACK.layer("m3")

    def test_widths_increase_up_the_stack(self):
        assert (
            FREEPDK45_STACK.local.width_um
            < FREEPDK45_STACK.semi_global.width_um
            < FREEPDK45_STACK.global_.width_um
        )

    def test_resistance_decreases_up_the_stack(self):
        assert (
            FREEPDK45_STACK.local.resistance_per_um()
            > FREEPDK45_STACK.semi_global.resistance_per_um()
            > FREEPDK45_STACK.global_.resistance_per_um()
        )


class TestCalibration:
    """The paper's Fig. 5 speed-up anchors (Section 2.3)."""

    def test_local_asymptotic_speedup(self):
        assert FREEPDK45_STACK.local.speedup_at(OP_CRYO) == pytest.approx(2.95, rel=1e-3)

    def test_semi_global_asymptotic_speedup(self):
        assert FREEPDK45_STACK.semi_global.speedup_at(OP_CRYO) == pytest.approx(
            3.69, rel=1e-3
        )

    def test_global_near_bulk(self):
        assert FREEPDK45_STACK.global_.speedup_at(OP_CRYO) == pytest.approx(
            1.0 / 0.21, rel=1e-3
        )

    def test_no_speedup_at_room(self):
        for layer in FREEPDK45_STACK.layers.values():
            assert layer.speedup_at(OP_ROOM) == pytest.approx(1.0)

    def test_thinner_wires_benefit_less(self):
        # The size effect freezes out less resistivity in narrow wires.
        assert (
            FREEPDK45_STACK.local.speedup_at(OP_CRYO)
            < FREEPDK45_STACK.semi_global.speedup_at(OP_CRYO)
            < FREEPDK45_STACK.global_.speedup_at(OP_CRYO)
        )


class TestMetalLayerValidation:
    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            MetalLayer(
                "bad", width_um=0.0, thickness_um=0.1, capacitance_f_per_um=0.2,
                resistivity=CryoResistivityModel(1.0, 0.1),
            )

    def test_rc_per_um2_positive_and_temperature_sensitive(self):
        layer = FREEPDK45_STACK.semi_global
        assert layer.rc_per_um2(OP_CRYO) < layer.rc_per_um2(OP_ROOM)
        assert layer.rc_per_um2(OP_CRYO) > 0
