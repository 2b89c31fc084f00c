#include "core/reuse_analysis.h"

#include <algorithm>

#include "circuit/timing.h"
#include "core/qs_caqr.h"
#include "core/reuse_transform.h"
#include "util/logging.h"

namespace caqr::core {

bool
is_valid_reuse_pair(const circuit::CircuitDag& dag, int source, int target)
{
    const auto& circuit = dag.circuit();
    if (source == target) return false;
    if (source < 0 || source >= circuit.num_qubits()) return false;
    if (target < 0 || target >= circuit.num_qubits()) return false;
    if (dag.nodes_on_qubit(source).empty() ||
        dag.nodes_on_qubit(target).empty()) {
        return false;
    }
    // Condition 1: no shared gate.
    if (dag.qubits_share_gate(source, target)) return false;
    // Condition 2: nothing on `source` may depend on anything on
    // `target`.
    return !dag.qubit_depends_on(source, target);
}

std::vector<ReusePair>
find_reuse_pairs(const circuit::CircuitDag& dag)
{
    std::vector<ReusePair> pairs;
    const int k = dag.circuit().num_qubits();
    for (int source = 0; source < k; ++source) {
        for (int target = 0; target < k; ++target) {
            if (is_valid_reuse_pair(dag, source, target)) {
                pairs.push_back(ReusePair{source, target});
            }
        }
    }
    return pairs;
}

SpliceCosts::SpliceCosts(const circuit::CircuitDag& dag,
                         const circuit::DurationModel& model,
                         double dummy_weight)
    : dummy_weight_(dummy_weight)
{
    const auto& circuit = dag.circuit();
    std::vector<double> weights;
    weights.reserve(circuit.size());
    for (const auto& instr : circuit.instructions()) {
        weights.push_back(model.duration(instr));
    }
    const auto finish = dag.graph().earliest_completion(weights);
    const auto tail = dag.graph().longest_from(weights);
    for (double f : finish) critical_ = std::max(critical_, f);

    const int num_qubits = circuit.num_qubits();
    qubit_finish_.assign(static_cast<std::size_t>(num_qubits), 0.0);
    qubit_tail_.assign(static_cast<std::size_t>(num_qubits), 0.0);
    for (int q = 0; q < num_qubits; ++q) {
        for (int node : dag.nodes_on_qubit(q)) {
            qubit_finish_[q] = std::max(qubit_finish_[q], finish[node]);
            qubit_tail_[q] = std::max(qubit_tail_[q], tail[node]);
        }
    }
}

ReuseAdvice
advise_reuse(const circuit::Circuit& circuit)
{
    ReuseAdvice advice;
    advice.active_qubits = circuit.active_qubit_count();

    // The full QS-CaQR sweep is the most faithful probe: it explores
    // both greedy policies, so the estimate matches what the compiler
    // can actually deliver.
    const auto sweep = qs_caqr_or(circuit, QsCaqrOptions{}).value();
    advice.any_opportunity = sweep.versions.size() > 1;
    advice.original_depth = sweep.versions.front().depth;
    advice.min_qubits_estimate = sweep.versions.back().qubits;
    advice.max_reuse_depth = sweep.versions.back().depth;
    return advice;
}

}  // namespace caqr::core
