"""Tests for design-point serialization (save/load of hardware + mappings)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch import GemminiSpec, HardwareConfig
from repro.mapping import cosa_mapping
from repro.timeloop import evaluate_network_mappings
from repro.utils.serialization import (
    canonical_outcome_json,
    design_from_dict,
    design_to_dict,
    hardware_from_dict,
    hardware_to_dict,
    load_design,
    load_outcome,
    outcome_to_dict,
    save_design,
)
from repro.workloads import conv2d_layer, matmul_layer


@pytest.fixture
def design():
    hardware = HardwareConfig(16, 32, 128)
    layers = [conv2d_layer(64, 64, 28, name="conv", repeats=2),
              matmul_layer(196, 256, 512, name="fc")]
    mappings = [cosa_mapping(layer, hardware) for layer in layers]
    return hardware, mappings


class TestHardwareSerialization:
    def test_roundtrip(self):
        config = HardwareConfig(32, 64, 256)
        assert hardware_from_dict(hardware_to_dict(config)) == config


class TestDesignSerialization:
    def test_dict_roundtrip_preserves_evaluation(self, design):
        hardware, mappings = design
        payload = design_to_dict(hardware, mappings, metadata={"workload": "demo"})
        restored_hw, restored_mappings, metadata = design_from_dict(payload)
        assert restored_hw == hardware
        assert metadata == {"workload": "demo"}
        original = evaluate_network_mappings(mappings, GemminiSpec(hardware))
        restored = evaluate_network_mappings(restored_mappings, GemminiSpec(restored_hw))
        assert restored.edp == pytest.approx(original.edp)
        assert restored_mappings[0].layer.repeats == 2

    def test_file_roundtrip(self, design, tmp_path):
        hardware, mappings = design
        path = save_design(tmp_path / "nested" / "design.json", hardware, mappings)
        assert path.exists()
        restored_hw, restored_mappings, metadata = load_design(path)
        assert restored_hw == hardware
        assert len(restored_mappings) == len(mappings)
        assert metadata == {}
        for original, restored in zip(mappings, restored_mappings):
            assert np.allclose(original.temporal, restored.temporal)
            assert np.allclose(original.spatial, restored.spatial)
            assert original.orderings == restored.orderings


class TestOutcomesFromEarlierVersions:
    def test_dosa_outcome_with_removed_settings_loads(self):
        """A repro 2.5.0 DOSA outcome, whose settings carry four since-removed
        flags, loads and re-serializes unchanged."""
        path = Path(__file__).parent / "data" / "dosa_outcome_2.5.0.json"
        payload = json.loads(path.read_text())
        assert {"batched_model", "use_tape", "batched_starts",
                "batched_rounding"} <= set(payload["settings"])
        outcome = load_outcome(path)
        assert outcome.settings == payload["settings"]
        assert outcome_to_dict(outcome) == payload
        assert canonical_outcome_json(outcome) == canonical_outcome_json(payload)
