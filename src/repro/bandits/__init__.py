"""Multi-armed bandit models (survey §2).

* Classical Markov bandits and the **Gittins index** (Gittins–Jones [19]):
  the Varaiya–Walrand–Buyukkoc largest-index-first algorithm [40] and the
  Katehakis–Veinott restart-in-state formulation, verified against exact
  product-space dynamic programming.
* **Restless bandits** (Whittle [48]): indexability checking, the Whittle
  index, the average-reward LP relaxation bound, the Bertsimas–Niño-Mora
  primal–dual heuristic [7], and the Weber–Weiss asymptotic-optimality
  experiment [44].
* **Switching costs** (Asawa–Teneketzis [2]): exact DP ground truth and the
  hysteresis index heuristic.
"""

from repro.bandits.project import MarkovProject, random_project, deteriorating_project
from repro.bandits.gittins import (
    gittins_indices_restart,
    gittins_indices_vwb,
    gittins_policy,
)
from repro.bandits.exact import (
    bandit_product_mdp,
    evaluate_priority_policy,
    optimal_bandit_value,
)
from repro.bandits.simulation import simulate_bandit
from repro.bandits.restless import (
    RestlessProject,
    is_indexable,
    random_restless_project,
    whittle_index_tables,
    whittle_indices,
)
from repro.bandits.relaxation import (
    average_relaxation_bound,
    myopic_rule,
    primal_dual_indices,
    simulate_restless,
    whittle_rule,
)
from repro.bandits.heterogeneous import (
    heterogeneous_relaxation_bound,
    heterogeneous_whittle_rule,
    relaxation_bounds_and_indices,
    simulate_heterogeneous_restless,
)
from repro.bandits.switching import (
    evaluate_switching_policy,
    gittins_with_hysteresis,
    optimal_switching_value,
    plain_gittins_switch_policy,
    switching_bandit_mdp,
)

__all__ = [
    "MarkovProject",
    "random_project",
    "deteriorating_project",
    "gittins_indices_vwb",
    "gittins_indices_restart",
    "gittins_policy",
    "bandit_product_mdp",
    "optimal_bandit_value",
    "evaluate_priority_policy",
    "simulate_bandit",
    "RestlessProject",
    "random_restless_project",
    "whittle_indices",
    "whittle_index_tables",
    "is_indexable",
    "average_relaxation_bound",
    "primal_dual_indices",
    "simulate_restless",
    "whittle_rule",
    "myopic_rule",
    "heterogeneous_relaxation_bound",
    "heterogeneous_whittle_rule",
    "relaxation_bounds_and_indices",
    "simulate_heterogeneous_restless",
    "switching_bandit_mdp",
    "optimal_switching_value",
    "evaluate_switching_policy",
    "gittins_with_hysteresis",
    "plain_gittins_switch_policy",
]
