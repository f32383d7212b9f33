"""Compact entanglement routing over quantum-addressed overlay networks.

The package simulates a quantum backbone: a node's quantum address is its
id as a computational-basis state; nodes maintain entangled links toward their
cheapest peers plus a sublinear set of long-range hubs, and resolve end-to-end
entanglement requests with provably constant stretch. A table lookup is one
amplitude-amplified search over the table's superposed addresses, run from
its exact closed-form label marginal, and one measurement.
"""

from .addressing import AddressPlan, QuantumAddress
from .clustering import (
    AnchorSet,
    CoverageReport,
    Scheme,
    TrackedSets,
    assign_all_tracking,
    build_anchor_set_greedy,
    build_anchor_set_random,
    build_tracked_sets,
    neighborhood_size,
    verify_coverage,
)
from .metrics import (
    AxiomReport,
    Composition,
    EntanglingMetric,
    capacity_metric,
    check_axioms,
    compose,
    fold,
    hop_count_metric,
    metric_by_name,
    uniform_weight_metric,
)
from .qsearch import (
    SearchInstance,
    SearchOutcome,
    instance_from_table,
    iteration_count,
    partition_neighborhood,
    routing_lookup_via_search,
    run_search,
)
from .routing import (
    Case,
    EntangledPath,
    Origin,
    PairEvaluation,
    QuantumPacket,
    RoutingTable,
    SchemeTables,
    TableEntry,
    build_tables,
    evaluate_all_pairs,
    make_packet,
    replenish,
    resolve,
    swap_and_replenish,
    table_size_stats,
    verify_bound_chain,
)
from .topology import (
    ENeighborhood,
    NetworkGraph,
    all_neighborhoods,
    all_pairs_optimal,
    generate_graph,
    load_graph,
    optimal_cost,
    save_graph,
)

__version__ = "0.1.0"
