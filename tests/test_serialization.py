"""Tests for hardware and search-outcome serialization."""

import json
from pathlib import Path

from repro.arch import HardwareConfig
from repro.utils.serialization import (
    canonical_outcome_json,
    hardware_from_dict,
    hardware_to_dict,
    load_outcome,
    outcome_to_dict,
)


class TestHardwareSerialization:
    def test_roundtrip(self):
        config = HardwareConfig(32, 64, 256)
        assert hardware_from_dict(hardware_to_dict(config)) == config


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
