/**
 * @file
 * Qubit-reuse legality analysis (paper §3.1).
 *
 * A reuse pair (qi -> qj) means: measure-and-reset qi after its last
 * operation, then run qj's operations on the same wire. It is legal iff
 *
 *   Condition 1 — qi and qj never share a gate, and
 *   Condition 2 — no operation on qi depends (transitively) on an
 *                 operation on qj; equivalently, splicing the
 *                 measurement/reset node between the two gate groups
 *                 leaves the DAG acyclic.
 */
#ifndef CAQR_CORE_REUSE_ANALYSIS_H
#define CAQR_CORE_REUSE_ANALYSIS_H

#include <algorithm>
#include <vector>

#include "circuit/dag.h"
#include "circuit/timing.h"

namespace caqr::core {

/// A directed reuse pair: wire of `source` is reused by `target`.
struct ReusePair
{
    int source = -1;  ///< qubit measured & reset (qi)
    int target = -1;  ///< qubit whose gates move onto qi's wire (qj)

    friend bool
    operator==(const ReusePair& a, const ReusePair& b)
    {
        return a.source == b.source && a.target == b.target;
    }
};

/// True if (source -> target) satisfies Conditions 1 and 2 on @p dag.
/// Qubits with no operations are never part of a valid pair (there is
/// nothing to save).
bool is_valid_reuse_pair(const circuit::CircuitDag& dag, int source,
                         int target);

/// All valid reuse pairs of @p dag, source-major (O(k^2) bit tests on
/// the DAG's qubit matrices).
std::vector<ReusePair> find_reuse_pairs(const circuit::CircuitDag& dag);

/**
 * Closed-form post-splice critical paths for the reuse candidates of
 * one DAG (the tentative evaluation of §3.2.1). Splicing the
 * measure/reset dummy between the gates on `source` and the gates on
 * `target` only adds paths through the dummy, so the result is
 * max(critical, qubit_finish[source] + dummy + qubit_tail[target]):
 * the latest ASAP finish on the source plus the longest suffix that
 * starts on the target. Equal to CircuitDag::reuse_critical_path for
 * every valid pair, at O(1) per candidate after one O(V + E) setup.
 */
class SpliceCosts
{
  public:
    SpliceCosts(const circuit::CircuitDag& dag,
                const circuit::DurationModel& model, double dummy_weight);

    /// Critical path of the DAG without a splice.
    double critical() const { return critical_; }

    /// Latest earliest-completion time of any operation on @p q.
    double qubit_finish(int q) const { return qubit_finish_[q]; }

    /// Critical path after splicing the dummy for @p pair.
    double
    cost(ReusePair pair) const
    {
        return std::max(critical_, qubit_finish_[pair.source] +
                                       dummy_weight_ +
                                       qubit_tail_[pair.target]);
    }

  private:
    double dummy_weight_;
    double critical_ = 0.0;
    std::vector<double> qubit_finish_;
    std::vector<double> qubit_tail_;
};

/**
 * Quick benefit probe (paper §1: "a method for identifying whether
 * qubit reuse will be beneficial for a given application").
 */
struct ReuseAdvice
{
    bool any_opportunity = false;
    int active_qubits = 0;
    /// Qubits reachable by greedily exhausting depth-best reuse pairs.
    int min_qubits_estimate = 0;
    /// Depth of the original circuit.
    int original_depth = 0;
    /// Depth of the maximally-reused circuit found by the greedy probe.
    int max_reuse_depth = 0;
};

/// Runs the greedy probe on @p circuit.
ReuseAdvice advise_reuse(const circuit::Circuit& circuit);

}  // namespace caqr::core

#endif  // CAQR_CORE_REUSE_ANALYSIS_H
