"""Search with nonobligatory inspection via local hedging.

Library surface: discrete distribution arithmetic (distkit), per-item indices
and surrogate prices (indices), single-item and combinatorial policies
(policies, combinatorial), dynamic programming oracles (oracle), instance
files (instancefile), and the verification suite (verify).

A policy runs one way: ``prepare_policy`` or ``prepare_comb_policy`` gives a
``PreparedPolicy`` on its instance, which ``run`` traces one trial of and
``evaluate_exact`` and ``evaluate_mc`` take alone.
"""

from .budget import DEFAULT_BUDGET, BudgetExceededError
from .distkit import (
    DiscreteDist,
    backup_price,
    expected_excess,
    expected_shortfall,
    mean,
    min_of_independent,
    min_with_constant_expectation,
    reservation_price,
)
from .indices import (
    Item,
    ItemIndices,
    SurrogateKind,
    alpha_of_p,
    capped_expectation,
    compute_indices,
    hedging_losses,
    make_worst_case_item,
    surrogate_dist,
    surrogate_value,
)
from .instance import HedgeCoins, Instance, PolicyTrace, Realization, hedged_view
from .policies import (
    Action,
    evaluate_exact,
    evaluate_mc,
    one_item_optimal_action,
    one_item_value,
    prepare_policy,
)
from .combinatorial import (
    CombModel,
    ExplicitFamily,
    FacilityLocationTerminal,
    GraphicMatroid,
    GreedyRule,
    UniformMatroid,
    ZeroTerminal,
    expected_surrogate_cost,
    expected_surrogate_cost_mc,
    prepare_comb_policy,
    surrogate_cost,
)
from .oracle import (
    opt_value_comb_noi,
    opt_value_single_noi,
    opt_value_single_oi,
    pi_surrogate_bound,
)
from .instancefile import LoadedInstance, load_instance, parse_document, write_instance

__all__ = [name for name in dir() if not name.startswith("_")]
