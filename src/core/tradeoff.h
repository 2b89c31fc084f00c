/**
 * @file
 * Tradeoff exploration: sweep the qubit budget and record, per
 * achievable qubit count, the logical and hardware-compiled cost
 * metrics. This is the engine behind the paper's Figs 3, 13, 14 and
 * the Table 1 version selection.
 */
#ifndef CAQR_CORE_TRADEOFF_H
#define CAQR_CORE_TRADEOFF_H

#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "core/qs_caqr.h"
#include "transpile/transpiler.h"

namespace caqr::core {

/// One point on the qubit/cost tradeoff curve.
struct TradeoffPoint
{
    int qubits = 0;
    int logical_depth = 0;
    double logical_duration_dt = 0.0;
    /// Hardware-mapped metrics; -1 / NaN-free 0 when no backend given.
    int compiled_depth = 0;
    double compiled_duration_dt = 0.0;
    int swaps = 0;
};

/**
 * Sweeps QS-CaQR over a regular circuit from the original qubit count
 * to the minimum reachable. When @p backend is non-null every version
 * is also hardware-mapped with the baseline transpiler; the versions
 * and their routing trials fan out on @p options' pool and thread
 * budget.
 */
std::vector<TradeoffPoint> explore_tradeoff(
    const circuit::Circuit& circuit, const arch::Backend* backend,
    const QsCaqrOptions& options = {});

/// Commuting-workload variant (QAOA).
std::vector<TradeoffPoint> explore_tradeoff_commuting(
    const CommutingSpec& spec, const arch::Backend* backend,
    const QsCommutingOptions& options = {});

/// Fidelity-targeted version selection (paper §3.2: "choose the one
/// with the best circuit duration or fidelity (depending on the
/// fidelity metric, for instance, estimated success probability)").
struct EspSelection
{
    std::size_t version_index = 0;  ///< into QsCaqrResult::versions
    double esp = 0.0;               ///< best estimated success prob.
    circuit::Circuit compiled;      ///< its hardware-mapped circuit
};

/// Hardware-maps every version of @p result on @p backend with
/// @p options — the versions fan out on its pool and thread budget,
/// and each version's routing trials share them (the winner is
/// identical at any count) — and returns the one maximizing estimated
/// success probability.
EspSelection select_best_by_esp(
    const QsCaqrResult& result, const arch::Backend& backend,
    const transpile::TranspileOptions& options = {});

}  // namespace caqr::core

#endif  // CAQR_CORE_TRADEOFF_H
