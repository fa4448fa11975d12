"""Every DOSA gradient step reproduces its recorded bytes.

``tests/data/descent_digests_3.0.0.json`` records, for every registry network
and each of the three loop-ordering strategies, a short seeded DOSA run
(3 start points, 40 gradient steps, rounding every 15 steps, so the run
re-traces its tape at two rounding points and ends on a third).  Per case it
holds a sha256 over every step's loss, both parameter gradients and both
updated parameter arrays, each hashed as ``tobytes()`` (so ``-0.0`` differs
from ``0.0``), and the sha256 of the outcome's ``canonical_outcome_json``.
A change to the autodiff engine or the differentiable model that moves any
bit of a loss, a gradient or an Adam update shows here, step by step, before
it reaches a rounded design.  The bytes are those of the recording
platform's NumPy kernels (NumPy 2.4 with AVX-512 dispatch, x86-64): on a
build or CPU whose ``exp``/``log`` round differently in the last bit, cases
fail with no change to the code, and the fixture is re-recorded there
first.  Rewrite the fixture only for a deliberate, documented change to
the descent, or for such a platform:

    PYTHONPATH=src python tests/test_descent_digests.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FIXTURE = Path(__file__).parent / "data" / "descent_digests_3.0.0.json"
STRATEGIES = ("baseline", "iterate", "softmax")


def _networks() -> list[str]:
    from repro.workloads.networks import NETWORK_BUILDERS

    return sorted(NETWORK_BUILDERS)


def _record(network: str, strategy: str) -> dict:
    """Run one seeded descent, hashing each step's loss, gradients and update."""
    import repro
    from repro.core.optimizer import dosa
    from repro.utils.serialization import canonical_outcome_json

    steps = hashlib.sha256()
    count = 0

    class RecordingTape(dosa.Tape):
        def forward(self):
            loss = super().forward()
            steps.update(loss.data.tobytes())
            return loss

    class RecordingAdam(dosa.Adam):
        def step(self):
            nonlocal count
            for parameter in self.parameters:
                grad = parameter.grad
                steps.update(b"none" if grad is None else grad.tobytes())
            super().step()
            for parameter in self.parameters:
                steps.update(parameter.data.tobytes())
            count += 1

    settings = dosa.DosaSettings(seed=0, num_start_points=3, gd_steps=40,
                                 rounding_period=15, ordering_strategy=strategy)
    with mock.patch.object(dosa, "Tape", RecordingTape), \
            mock.patch.object(dosa, "Adam", RecordingAdam):
        outcome = repro.optimize(network=network, strategy="dosa",
                                 settings=settings)
    text = canonical_outcome_json(outcome)
    return {"steps": count,
            "steps_sha256": steps.hexdigest(),
            "outcome_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _case_ids() -> list[str]:
    return [f"{network}/{strategy}" for network in _networks()
            for strategy in STRATEGIES]


@pytest.mark.parametrize("case_id", _case_ids())
def test_descent_steps_match_recorded(case_id):
    expected = json.loads(FIXTURE.read_text())[case_id]
    network, strategy = case_id.split("/")
    assert _record(network, strategy) == expected


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_case_ids())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"recompute every case and write {FIXTURE.name}")
    if parser.parse_args().write:
        records = {case_id: _record(*case_id.split("/")) for case_id in _case_ids()}
        FIXTURE.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cases to {FIXTURE}")
