"""Configuration sets of group actions, exact feasibility, paradoxical decompositions."""

from .words import (
    FreeWord,
    Permutation,
    WordParseError,
    evaluate_word,
    identity_permutation,
    parse_word,
    reduce_word,
    word_str,
)
from .langsets import FiniteSet, SymbolicSet
from .actions import (
    Action,
    EquivariantMap,
    FinitePermutationAction,
    FiniteRegularAction,
    FreeSelfAction,
    Partition,
    TrivialAction,
    partition,
    pull_back_partition,
    validate_partition,
)
from .configurations import (
    ConfigurationPair,
    ConfigurationSet,
    ConSearchBounds,
    cardinality_probe,
    coarsen_solution,
    compute_configurations,
    con_included,
    configuration_pair,
    verify_cell_partition,
)
from .equations import (
    FeasibilityResult,
    LinearSystem,
    build_equations,
    counting_solution,
    decide,
    solve_feasibility,
    verify_certificate,
    verify_solution,
)
from .paradox import (
    ChainHypothesisError,
    CyclicSubgroup,
    CyclicTableau,
    FiniteSubgroup,
    InfiniteOrderWitness,
    NonabelianWitness,
    ParadoxicalDecomposition,
    ParadoxPattern,
    PingPongChain,
    bounded_paradox_search,
    chain_to_decomposition,
    check_pingpong_cyclic,
    check_pingpong_subgroups,
    make_infinite_order_witness,
    make_nonabelian_witness,
    pattern_check,
    verify_decomposition,
    verify_infinite_order,
    verify_nonabelian,
)

__version__ = "0.1.0"
