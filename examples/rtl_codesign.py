"""Real-hardware-style DSE with a learned latency model (Section 6.5 workflow).

1. Generate a latency dataset from random mappings of the training workloads
   on the simulated Gemmini-RTL.
2. Train the DNN difference model and build the combined analytical+DNN
   latency predictor.
3. Run DOSA with PE dimensions fixed to 16x16, and let the combined model
   pick the best buffer sizes and mappings for ResNet-50 among the search's
   rounded candidates.
4. Report the RTL-evaluated EDP against the hand-tuned default configuration
   (32 KB accumulator / 128 KB scratchpad), as in Figure 12 and Table 7.

Run with:  python examples/rtl_codesign.py
"""

from repro.arch import GEMMINI_DEFAULT
from repro.experiments.fig12_rtl import default_design_edp, search_with_latency_models
from repro.core.optimizer import DosaSettings
from repro.surrogate import CombinedLatencyModel, RtlSimulator, TrainingSettings, generate_dataset
from repro.surrogate.combined import evaluate_model_accuracy
from repro.surrogate.dataset import train_test_split
from repro.workloads import training_networks


def main() -> None:
    simulator = RtlSimulator()

    print("generating RTL latency dataset from the training workloads...")
    dataset = generate_dataset(training_networks(), GEMMINI_DEFAULT,
                               samples_per_layer=6, simulator=simulator, seed=0)
    train, test = train_test_split(dataset, seed=0)
    print(f"  {len(train)} training samples, {len(test)} held-out samples")

    print("training the analytical+DNN latency model...")
    combined = CombinedLatencyModel(seed=0)
    combined.train(train, TrainingSettings(epochs=300, seed=0))
    accuracy = evaluate_model_accuracy(combined, test)
    print(f"  Spearman rank correlation on held-out mappings: {accuracy:.3f}")

    print("searching buffer sizes and mappings for ResNet-50 (16x16 PEs fixed)...")
    settings = DosaSettings(num_start_points=2, gd_steps=240, rounding_period=80,
                            fixed_pe_dim=GEMMINI_DEFAULT.pe_dim, seed=0)
    [design] = search_with_latency_models("resnet50", [combined], settings, simulator)
    default_edp = default_design_edp("resnet50", simulator)

    print()
    print(f"default Gemmini  : accumulator {GEMMINI_DEFAULT.accumulator_kb} KB, "
          f"scratchpad {GEMMINI_DEFAULT.scratchpad_kb} KB, EDP {default_edp:.4e}")
    print(f"DOSA (analytical+DNN): accumulator {design.hardware.accumulator_kb} KB, "
          f"scratchpad {design.hardware.scratchpad_kb} KB, EDP {design.edp:.4e}")
    print(f"improvement over the hand-tuned default: {default_edp / design.edp:.2f}x")


if __name__ == "__main__":
    main()
