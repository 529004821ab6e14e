"""repro — reproduction of Lenzen, Lynch, Newport & Radeva (PODC 2014).

"Trade-offs between Selection Complexity and Performance when Searching
the Plane without Communication" studies ``n`` non-communicating
probabilistic finite automata searching the grid for a target at
unknown distance ``D``, trading the selection-complexity metric
``chi(A) = b + log2(l)`` against the achievable speed-up.

Public API highlights
---------------------

Algorithms (``repro.core``, re-exported here):

* :class:`~repro.core.algorithm1.Algorithm1` — knows ``D``, optimal
  ``O(D^2/n + D)`` expected moves (Theorem 3.5);
* :class:`~repro.core.nonuniform.NonUniformSearch` — knows ``D``, coarse
  coins only, ``chi = log log D + O(1)`` (Theorem 3.7);
* :class:`~repro.core.uniform.UniformSearch` — uniform in ``D``,
  ``(D^2/n + D) * 2^{O(l)}`` with ``chi <= 3 log log D + O(1)``
  (Theorem 3.14).

Substrates: the grid world (``repro.grid``), Markov-chain analysis
(``repro.markov``), the simulation engines (``repro.sim``), baseline
algorithms (``repro.baselines``) and the lower-bound machinery
(``repro.lowerbound``).

Simulations run through the backend service layer (see
ARCHITECTURE.md): build a :class:`~repro.sim.SimulationRequest` and
call :func:`~repro.sim.simulate`, which dispatches to the faithful
step-level engine or the batched whole-trial-batch NumPy backend and
can shard trials across worker processes.

Quickstart
----------

>>> from repro import AlgorithmSpec, SimulationRequest, simulate
>>> request = SimulationRequest(
...     algorithm=AlgorithmSpec.uniform(1),
...     n_agents=4, target=(5, 3), move_budget=50_000, seed=7,
... )
>>> simulate(request).outcome.found
True
"""

from repro.core import (
    Action,
    Algorithm1,
    Automaton,
    AutomatonAlgorithm,
    CompositeCoin,
    DoublyUniformSearch,
    MemoryMeter,
    NonUniformSearch,
    SearchAlgorithm,
    SelectionComplexity,
    UniformSearch,
    calibrated_K,
    chi_threshold,
)
from repro.grid import (
    CornerTarget,
    FixedTarget,
    GridWorld,
    MultiTargetWorld,
    RingTarget,
    UniformSquareTarget,
)
from repro.sim import (
    AlgorithmSpec,
    EngineConfig,
    OutcomeBatch,
    SearchEngine,
    SearchOutcome,
    SimulationJob,
    SimulationRequest,
    SimulationResult,
    simulate,
    simulate_async,
    spawn_generators,
    speedup,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "Algorithm1",
    "Automaton",
    "AutomatonAlgorithm",
    "CompositeCoin",
    "DoublyUniformSearch",
    "MemoryMeter",
    "NonUniformSearch",
    "SearchAlgorithm",
    "SelectionComplexity",
    "UniformSearch",
    "calibrated_K",
    "chi_threshold",
    "GridWorld",
    "MultiTargetWorld",
    "FixedTarget",
    "CornerTarget",
    "UniformSquareTarget",
    "RingTarget",
    "AlgorithmSpec",
    "EngineConfig",
    "OutcomeBatch",
    "SearchEngine",
    "SearchOutcome",
    "SimulationJob",
    "SimulationRequest",
    "SimulationResult",
    "simulate",
    "simulate_async",
    "spawn_generators",
    "speedup",
    "__version__",
]
