"""Decision making under ambiguity with weighted sets of probability measures.

Beliefs are finite sets of probability measures, each carrying a weight in
[0, 1]; observing an event conditions the measures and rescales the weights
by relative likelihood.  Acts are ranked by worst-case weighted expected
regret (alongside expected utility, maxmin expected utility, probability-
free minimax regret and worst-case expected regret), with property-based
checks of the preference axioms, conditional preferences over decision
trees, and repeated-observation weight dynamics.
"""

from .decisions import (
    Act,
    Lottery,
    Menu,
    Ranking,
    UtilitySpec,
    constant_act,
    max_regret,
    mer,
    mix,
    mix_menu,
    mmeu,
    mwer,
    rank,
    regret_profile,
    seu,
    sure,
)
from .measures import (
    Event,
    Measure,
    RegularHull,
    SubProbabilityVector,
    WeightedMeasureSet,
    hull_equal,
    likelihood_update,
    normalize,
    point_mass,
    recover_weights,
    sequential_update,
    support_value,
    to_hull,
    upper_likelihood,
    worst_weighted_regret_oracle,
)

__all__ = [
    "Act",
    "Event",
    "Lottery",
    "Measure",
    "Menu",
    "Ranking",
    "RegularHull",
    "SubProbabilityVector",
    "UtilitySpec",
    "WeightedMeasureSet",
    "constant_act",
    "hull_equal",
    "likelihood_update",
    "max_regret",
    "mer",
    "mix",
    "mix_menu",
    "mmeu",
    "mwer",
    "normalize",
    "point_mass",
    "rank",
    "recover_weights",
    "regret_profile",
    "sequential_update",
    "seu",
    "support_value",
    "sure",
    "to_hull",
    "upper_likelihood",
    "worst_weighted_regret_oracle",
]

__version__ = "0.1.0"
