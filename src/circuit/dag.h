/**
 * @file
 * Gate-dependency DAG over a circuit (paper §3.2.1).
 *
 * One node per instruction; edges follow the per-qubit and per-clbit
 * program order (a barrier orders everything before it against
 * everything after it). The DAG answers the queries the CaQR passes
 * need: depth / duration via weighted critical path, per-qubit gate
 * groups, qubit-level dependence (Condition 2), and critical-path
 * membership (used by SR-CaQR's gate delaying).
 */
#ifndef CAQR_CIRCUIT_DAG_H
#define CAQR_CIRCUIT_DAG_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/timing.h"
#include "graph/digraph.h"

namespace caqr::circuit {

/// Immutable dependency DAG of a circuit.
class CircuitDag
{
  public:
    /// Builds the DAG; @p circuit must outlive this object.
    explicit CircuitDag(const Circuit& circuit);

    const Circuit& circuit() const { return *circuit_; }

    /// Underlying digraph; node i corresponds to instruction i.
    const graph::Digraph& graph() const { return graph_; }

    /// Circuit depth: critical path under unit weights per non-barrier
    /// instruction.
    int depth() const;

    /// Circuit duration (dt) under @p model.
    double duration(const DurationModel& model) const;

    /// Instruction indices acting on qubit @p q, program order.
    const std::vector<int>& nodes_on_qubit(int q) const;

    /**
     * True if some operation on @p qi transitively depends on some
     * operation on @p qj — i.e. reuse pair (qi -> qj) violates
     * Condition 2 because gates on qi cannot all finish before gates on
     * qj start. Answered from a qubit-level bit matrix built on the
     * first Condition 1/2 query (thread-safe).
     */
    bool qubit_depends_on(int qi, int qj) const;

    /// True if qubits qi and qj share at least one gate (Condition 1
    /// violation for the reuse pair).
    bool qubits_share_gate(int qi, int qj) const;

    /**
     * Critical-path membership per instruction under @p model: node u is
     * on a critical path iff its earliest and latest completion times
     * coincide. Barriers are reported as non-critical.
     */
    std::vector<bool> critical_nodes(const DurationModel& model) const;

    /**
     * Critical path length if a measurement/reset dummy node is spliced
     * between the gates on @p qi and the gates on @p qj (the tentative
     * reuse evaluation of §3.2.1). @p dummy_weight is the dummy node's
     * duration (measure + conditioned reset under the model in use).
     * Copies the graph and recomputes the critical path; QS-CaQR prices
     * candidates with the equivalent closed form instead, and this
     * full evaluation serves as its test oracle. The circuit itself is
     * not modified.
     */
    double reuse_critical_path(int qi, int qj, const DurationModel& model,
                               double dummy_weight) const;

  private:
    /// Fills the qubit matrices in one forward pass over the nodes.
    void build_qubit_matrices() const;

    /// Bit @p qj of row @p qi of a qubit matrix, building the matrices
    /// on first use.
    bool qubit_bit(const std::vector<std::uint64_t>& matrix, int qi,
                   int qj) const;

    const Circuit* circuit_;
    graph::Digraph graph_;
    std::vector<std::vector<int>> per_qubit_;
    /// Qubit matrices, row-major with qubit_words_ words per row:
    /// depends_ row qi holds every qj with an operation that is a strict
    /// ancestor of an operation on qi; shares_ row qi holds every qj
    /// that appears in a gate with qi. Built lazily: most DAGs are only
    /// asked for depth or duration.
    mutable std::once_flag qubit_matrices_built_;
    mutable std::size_t qubit_words_ = 0;
    mutable std::vector<std::uint64_t> depends_;
    mutable std::vector<std::uint64_t> shares_;
};

}  // namespace caqr::circuit

#endif  // CAQR_CIRCUIT_DAG_H
