"""Cross-module integration tests.

These exercise the seams the unit tests do not: agreement between the two
performance models on per-level traffic, the mapping-first hardware
derivation used end to end, the CLI, and a miniature end-to-end search whose
output is re-validated with the reference model.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    DosaSearcher,
    DosaSettings,
    HardwareConfig,
    cosa_mapping,
    evaluate_mapping,
    evaluate_network_mappings,
    get_network,
)
from repro.cli import main as cli_main
from repro.core.dmodel import DenseTerms, DifferentiableModel, MultiStartFactors
from repro.mapping import (
    minimal_hardware_for_mappings,
    random_mapping,
)
from repro.timeloop import analyze_traffic
from repro.workloads import conv2d_layer, matmul_layer
from repro.workloads.networks import Network

from test_dmodel import derived_config


class TestModelAgreement:
    """The differentiable and reference models must agree per level, not just in total."""

    @pytest.mark.parametrize("seed", range(5))
    def test_per_level_accesses_match(self, seed):
        config = HardwareConfig(16, 32, 128)
        layer = conv2d_layer(64, 128, 28)
        mapping = random_mapping(layer, seed=seed, max_spatial=16)
        reference = analyze_traffic(mapping)
        factors = MultiStartFactors.from_mapping_sets([[mapping]])
        accesses = DifferentiableModel.traffic(factors)
        for level in range(4):
            assert accesses.data[level].item() == pytest.approx(
                reference.accesses(level), rel=1e-6)

    def test_macs_match_layer_definition(self):
        layer = matmul_layer(512, 768, 768)
        mapping = cosa_mapping(layer, HardwareConfig(16, 32, 128))
        factors = MultiStartFactors.from_mapping_sets([[mapping]])
        macs = DenseTerms(factors).macs
        assert macs.data.item() == pytest.approx(layer.macs)

    def test_derived_hardware_matches_constraint_path(self):
        config = HardwareConfig(16, 32, 128)
        layers = [conv2d_layer(64, 64, 56), matmul_layer(512, 768, 768)]
        mappings = [cosa_mapping(layer, config) for layer in layers]
        via_constraints = minimal_hardware_for_mappings(mappings)
        via_dmodel = derived_config(MultiStartFactors.from_mapping_sets([mappings]))
        assert via_dmodel == via_constraints


class TestMappingFirstFlow:
    def test_minimal_hardware_runs_cheaper_than_oversized(self):
        layer = conv2d_layer(64, 64, 28)
        mapping = cosa_mapping(layer, HardwareConfig(16, 32, 128))
        minimal = minimal_hardware_for_mappings([mapping])
        oversized = HardwareConfig(minimal.pe_dim,
                                   minimal.accumulator_kb * 4,
                                   minimal.scratchpad_kb * 4)
        minimal_energy = evaluate_mapping(mapping, minimal).energy
        oversized_energy = evaluate_mapping(mapping, oversized).energy
        # Larger SRAMs cost more energy per access (Table 2), so the minimal
        # configuration is never worse for the same mapping.
        assert minimal_energy <= oversized_energy

    def test_search_candidates_are_reference_consistent(self):
        network = Network(name="mini", layers=[conv2d_layer(64, 64, 28),
                                               matmul_layer(64, 256, 512)])
        settings = DosaSettings(num_start_points=1, gd_steps=40, rounding_period=20, seed=1)
        result = DosaSearcher(network, settings).search()
        # Re-evaluating the winning design from scratch reproduces its EDP.
        recomputed = evaluate_network_mappings(result.best.mappings,
                                               result.best.hardware)
        assert recomputed.edp == pytest.approx(result.best_edp, rel=1e-9)

    def test_whole_network_objective_differs_from_per_layer(self):
        # Equation 14 multiplies summed energy by summed latency, which is not
        # the sum of per-layer EDPs — the co-search optimizes the former.
        network = get_network("bert")
        config = HardwareConfig(16, 32, 128)
        mappings = [cosa_mapping(layer, config) for layer in network.layers]
        performance = evaluate_network_mappings(mappings, config)
        per_layer_edp_sum = sum(
            r.edp * m.layer.repeats for r, m in zip(performance.per_layer, mappings))
        assert performance.edp != pytest.approx(per_layer_edp_sum, rel=1e-3)


class TestCli:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        captured = capsys.readouterr().out
        assert "fig4" in captured and "fig12" in captured

    def test_fig4_small_scale(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OUTPUT_DIR", str(tmp_path))
        assert cli_main(["fig4", "--scale", "small"]) == 0
        captured = capsys.readouterr().out
        assert "fig4_model_correlation" in captured
        assert (tmp_path / "fig4_model_correlation.csv").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    @pytest.mark.parametrize("argv, message", [
        (["--max-seconds", "nan"], "max_seconds must be a finite"),
        (["--max-seconds", "inf"], "max_seconds must be a finite"),
        (["--seed", "-3"], "--seed must be a non-negative integer"),
    ], ids=["nan-seconds", "infinite-seconds", "negative-seed"])
    def test_search_refuses_bad_budget_or_seed(self, capsys, argv, message):
        """A NaN budget would never expire and a negative seed reached NumPy:
        both exit 2 with a one-line error before any search runs."""
        argv = ["search", "bert", "--strategy", "random", "--max-samples", "5", *argv]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err


class TestPackaging:
    def test_import_loads_no_scipy(self):
        """``import repro`` needs NumPy only: no SciPy module gets loaded."""
        src = Path(repro.__file__).resolve().parents[1]
        code = ("import sys; import repro; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], cwd=src,
                                capture_output=True, text=True, timeout=120,
                                check=True)
        assert result.stdout.strip() == "[]"

    def test_setup_version_matches_package(self):
        setup_py = Path(repro.__file__).resolve().parents[2] / "setup.py"
        call = next(node for node in ast.walk(ast.parse(setup_py.read_text()))
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "setup")
        version = next(keyword.value.value for keyword in call.keywords
                       if keyword.arg == "version")
        assert version == repro.__version__
