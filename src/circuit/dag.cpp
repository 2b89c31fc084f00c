#include "circuit/dag.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace caqr::circuit {

CircuitDag::CircuitDag(const Circuit& circuit)
    : circuit_(&circuit),
      graph_(static_cast<int>(circuit.size())),
      per_qubit_(static_cast<std::size_t>(circuit.num_qubits()))
{
    const auto& instrs = circuit.instructions();
    std::vector<int> last_on_qubit(
        static_cast<std::size_t>(circuit.num_qubits()), -1);
    std::vector<int> last_on_clbit(
        static_cast<std::size_t>(circuit.num_clbits()), -1);
    int last_barrier = -1;
    std::vector<int> since_barrier;  // nodes with no successor barrier yet

    for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
        const Instruction& instr = instrs[i];

        if (instr.kind == GateKind::kBarrier) {
            for (int node : since_barrier) graph_.add_edge(node, i);
            if (since_barrier.empty() && last_barrier >= 0) {
                graph_.add_edge(last_barrier, i);
            }
            since_barrier.clear();
            last_barrier = i;
            std::fill(last_on_qubit.begin(), last_on_qubit.end(), -1);
            std::fill(last_on_clbit.begin(), last_on_clbit.end(), -1);
            continue;
        }

        bool has_pred = false;
        for (int q : instr.qubits) {
            if (last_on_qubit[q] >= 0 && last_on_qubit[q] != i) {
                if (!graph_.has_edge(last_on_qubit[q], i)) {
                    graph_.add_edge(last_on_qubit[q], i);
                }
                has_pred = true;
            }
            last_on_qubit[q] = i;
            per_qubit_[q].push_back(i);
        }
        // Classical-bit ordering: measure writes, conditioned ops read.
        auto touch_clbit = [&](int bit) {
            if (bit < 0) return;
            if (last_on_clbit[bit] >= 0 && last_on_clbit[bit] != i &&
                !graph_.has_edge(last_on_clbit[bit], i)) {
                graph_.add_edge(last_on_clbit[bit], i);
                has_pred = true;
            }
            last_on_clbit[bit] = i;
        };
        touch_clbit(instr.clbit);
        touch_clbit(instr.condition_bit);

        if (!has_pred && last_barrier >= 0) {
            graph_.add_edge(last_barrier, i);
        }
        since_barrier.push_back(i);
    }
}

namespace {

std::vector<double>
node_weights(const Circuit& circuit, const DurationModel& model)
{
    std::vector<double> weights;
    weights.reserve(circuit.size());
    for (const auto& instr : circuit.instructions()) {
        weights.push_back(model.duration(instr));
    }
    return weights;
}

}  // namespace

int
CircuitDag::depth() const
{
    UnitDepthModel model;
    return static_cast<int>(duration(model) + 0.5);
}

double
CircuitDag::duration(const DurationModel& model) const
{
    return graph_.critical_path(node_weights(*circuit_, model));
}

const std::vector<int>&
CircuitDag::nodes_on_qubit(int q) const
{
    CAQR_CHECK(q >= 0 && q < circuit_->num_qubits(), "qubit out of range");
    return per_qubit_[q];
}

void
CircuitDag::build_qubit_matrices() const
{
    // Qubit-level reachability in one forward pass (node ids are a
    // topological order): anc[v] is the set of qubits carrying a strict
    // ancestor of v. Barriers pass their ancestry on but contribute no
    // qubits of their own. Every edge counts, classical-bit ones
    // included, so dependences through a shared measure bit are kept.
    const auto& instrs = circuit_->instructions();
    const std::size_t num_qubits =
        static_cast<std::size_t>(circuit_->num_qubits());
    qubit_words_ = (num_qubits + 63) / 64;
    depends_.assign(num_qubits * qubit_words_, 0);
    shares_.assign(num_qubits * qubit_words_, 0);
    std::vector<std::uint64_t> anc(instrs.size() * qubit_words_, 0);
    auto set_bit = [](std::uint64_t* row, int q) {
        row[static_cast<std::size_t>(q) >> 6] |=
            1ULL << (static_cast<std::size_t>(q) & 63);
    };
    for (std::size_t v = 0; v < instrs.size(); ++v) {
        std::uint64_t* row = anc.data() + v * qubit_words_;
        for (int p : graph_.predecessors(static_cast<int>(v))) {
            const std::size_t pi = static_cast<std::size_t>(p);
            const std::uint64_t* prow = anc.data() + pi * qubit_words_;
            for (std::size_t w = 0; w < qubit_words_; ++w) row[w] |= prow[w];
            if (instrs[pi].kind == GateKind::kBarrier) continue;
            for (int q : instrs[pi].qubits) set_bit(row, q);
        }
        if (instrs[v].kind == GateKind::kBarrier) continue;
        for (int q : instrs[v].qubits) {
            const std::size_t base = static_cast<std::size_t>(q) * qubit_words_;
            for (std::size_t w = 0; w < qubit_words_; ++w) {
                depends_[base + w] |= row[w];
            }
            for (int r : instrs[v].qubits) set_bit(shares_.data() + base, r);
        }
    }
}

bool
CircuitDag::qubit_bit(const std::vector<std::uint64_t>& matrix, int qi,
                      int qj) const
{
    std::call_once(qubit_matrices_built_, [this] { build_qubit_matrices(); });
    const std::size_t index =
        static_cast<std::size_t>(qi) * qubit_words_ +
        (static_cast<std::size_t>(qj) >> 6);
    return (matrix[index] >> (static_cast<std::size_t>(qj) & 63)) & 1;
}

bool
CircuitDag::qubit_depends_on(int qi, int qj) const
{
    return qubit_bit(depends_, qi, qj);
}

bool
CircuitDag::qubits_share_gate(int qi, int qj) const
{
    return qubit_bit(shares_, qi, qj);
}

std::vector<bool>
CircuitDag::critical_nodes(const DurationModel& model) const
{
    const auto weights = node_weights(*circuit_, model);
    const auto earliest = graph_.earliest_completion(weights);
    const auto latest = graph_.latest_completion(weights);
    std::vector<bool> result(circuit_->size(), false);
    for (std::size_t u = 0; u < result.size(); ++u) {
        if (circuit_->at(u).kind == GateKind::kBarrier) continue;
        result[u] = std::abs(earliest[u] - latest[u]) < 1e-9;
    }
    return result;
}

double
CircuitDag::reuse_critical_path(int qi, int qj, const DurationModel& model,
                                double dummy_weight) const
{
    graph::Digraph extended = graph_;
    const int dummy = extended.add_node();
    for (int node : per_qubit_[qi]) extended.add_edge(node, dummy);
    for (int node : per_qubit_[qj]) extended.add_edge(dummy, node);

    auto weights = node_weights(*circuit_, model);
    weights.push_back(dummy_weight);
    CAQR_CHECK(!extended.has_cycle(),
               "reuse_critical_path called on an invalid reuse pair");
    return extended.critical_path(weights);
}

}  // namespace caqr::circuit
