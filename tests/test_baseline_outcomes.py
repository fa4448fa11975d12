"""Seeded searches reproduce their recorded outcomes byte for byte.

``tests/data/baseline_outcomes_3.0.0.json`` records, for each case below, the
sha256 of the outcome's ``canonical_outcome_json`` and its best EDP, as
repro 3.0.0 computed them.  The cases pin DOSA and all three two-loop
baselines: the random mapper feeds every baseline, and the reference model
and its whole-network sum score every strategy, so a change to how either
draws, evaluates or composes would move these outcomes; the test makes such
a change visible.  Rewrite the fixture only for a deliberate, documented
outcome change:

    PYTHONPATH=src python tests/test_baseline_outcomes.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "data" / "baseline_outcomes_3.0.0.json"


def _cases() -> dict[str, dict]:
    """Case id -> keyword arguments of one ``repro.optimize`` call."""
    from repro.arch.config import HardwareConfig
    from repro.core.optimizer.dosa import DosaSettings
    from repro.search.bayesian import BayesianSettings
    from repro.search.random_mapper_search import FixedHardwareSettings

    cases: dict[str, dict] = {}
    for network in ("bert", "resnet50", "gpt2_decoder"):
        for seed in range(3):
            for budget in (60, 700):
                cases[f"random/{network}/seed{seed}/budget{budget}"] = dict(
                    network=network, strategy="random", seed=seed, budget=budget)
    for network in ("bert", "resnet50"):
        for seed in range(2):
            cases[f"bayesian/{network}/seed{seed}"] = dict(
                network=network, strategy="bayesian",
                settings=BayesianSettings(seed=seed, num_training_hardware=4,
                                          mappings_per_layer=20, num_candidates=6))
    cases["fixed_hw_random/bert/seed0"] = dict(
        network="bert", strategy="fixed_hw_random",
        settings=FixedHardwareSettings(mappings_per_layer=50, seed=0),
        hardware=HardwareConfig(16, 32, 128))
    for network in ("resnet50", "bert", "gpt2_decoder"):
        for seed in range(2):
            cases[f"dosa/{network}/seed{seed}"] = dict(
                network=network, strategy="dosa",
                settings=DosaSettings(seed=seed, num_start_points=3, gd_steps=60,
                                      rounding_period=20))
    return cases


def _record(case: dict) -> dict:
    import repro
    from repro.utils.serialization import canonical_outcome_json

    outcome = repro.optimize(**case)
    text = canonical_outcome_json(outcome)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "best_edp": outcome.best_edp}


@pytest.mark.parametrize("case_id", sorted(_cases()))
def test_seeded_outcome_matches_recorded(case_id):
    expected = json.loads(FIXTURE.read_text())[case_id]
    assert _record(_cases()[case_id]) == expected


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_cases())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"recompute every case and write {FIXTURE.name}")
    if parser.parse_args().write:
        records = {case_id: _record(case) for case_id, case in sorted(_cases().items())}
        FIXTURE.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cases to {FIXTURE}")
