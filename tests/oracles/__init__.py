"""Slow reference implementations that the parity tests compare against.

Nothing under ``src/`` imports these; they exist only so that the one
production path of each job can be checked against an independent, simpler
formulation of the same behaviour:

* :mod:`oracles.layer_model` — the per-column differentiable model the
  dense one replaced: one :class:`~oracles.layer_model.LayerFactors` per
  layer, scalar graphs over a dict of factor columns, Equations 2-14 one
  column at a time, the reload factor walked loop by loop in Python,
  hardware derived by chained per-layer maxima, per-layer losses and the
  per-layer ordering scan.
* :mod:`oracles.rounding` — the scalar Section-5.3.2 rounding walk, one
  mapping at a time.
* :mod:`oracles.schedule` — the DOSA search with one start point descended
  at a time (a loop of S=1 stacks).
* :mod:`oracles.random_mapper` — the random mapper one candidate at a time:
  scalar draws per prime factor and loop ordering, and a
  ``mapping_fits_hardware`` check per attempt.
* :mod:`oracles.cosa` — the CoSA-style mapper growing one divisor candidate
  at a time, with tile words from the reference model's
  ``loopnest.tile_words``.
* :mod:`oracles.exhaustive` — exhaustive enumeration of a small layer's
  mapspace, scored on the reference model: the true EDP optimum the
  heuristic mappers are measured against.
* :mod:`oracles.gp` — the Bayesian baseline's GP with its RBF kernel built
  in one broadcast over every pairwise feature difference.
* :mod:`oracles.chains` — the node-per-operation graphs the fused autodiff
  kernels stand for: the multiplication chain (of ``ops.cumprod``,
  ``ops.sequence_prod`` and the per-column model's products), the level
  slice plus ``np.add.at`` gather of ``ops.gather``, and the reload product
  that re-derives its mask in the backward.

The test suite puts ``tests/`` on ``sys.path`` (``pytest.ini``), so tests
import them as ``oracles.<module>``; the benchmark scripts add the same
directory themselves.
"""
