/**
 * @file
 * SR-CaQR — SWAP-reduction compiler pass (paper §3.3).
 *
 * Joint layout + routing that exploits dynamic circuits: frontier gates
 * off the critical path whose qubits are still unmapped are *delayed*,
 * so when a logical qubit finally must be placed there is a wider pool
 * of physical qubits to choose from — fresh ones plus ones already
 * *reclaimed* from retired logical qubits (measure + conditional-X
 * reset). Placement and SWAP insertion are distance- and
 * error-variability-aware. Qubit saving falls out as a side effect.
 */
#ifndef CAQR_CORE_SR_CAQR_H
#define CAQR_CORE_SR_CAQR_H

#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "core/commuting.h"
#include "core/qs_caqr.h"
#include "util/options.h"
#include "util/status.h"

namespace caqr::core {

/// SR-CaQR options. The embedded CommonOptions supply the per-request
/// trace opt-out, the variant-trial parallelism / borrowed pool, and
/// the `seed` of the jittered trials. The pass is deterministic: trials
/// 0-7 are fixed heuristic variants, trials 8 and up are seeded-jitter
/// runs, and the winner never depends on thread count.
struct SrCaqrOptions : CommonOptions
{
    /// Break placement/SWAP ties toward lower readout / CX error.
    bool error_aware = true;
    /// Weight of distance-to-placed-partners when seeding a placement;
    /// dominates connectivity so new qubits land next to the qubits
    /// they will talk to.
    double lookahead_weight = 4.0;
    /// Weight of the lookahead window in SWAP scoring.
    double swap_lookahead_weight = 0.5;
    /// Pull of a new placement toward the qubit's already-placed
    /// *future* interaction partners (0 = place purely by distance to
    /// the current partner, the paper's Step 2). Positive values trade
    /// a longer first hop for fewer SWAPs later; the variant portfolio
    /// sweeps this.
    double placement_pull = 0.0;
    /// Amplitude of seeded tie-break jitter on placement keys and SWAP
    /// scores (0 = fully greedy). Small positive values let equal-cost
    /// decisions explore different branches per trial — the SR
    /// equivalent of SABRE's random-seed trials. Jittered trials draw
    /// from `Rng(seed, jitter_stream)`, so results are reproducible.
    double jitter = 0.0;
    /// Substream selecting which deterministic jitter draw a trial
    /// uses; varied per variant trial.
    std::uint64_t jitter_stream = 0;
    /// Heuristic-perturbation trials: the first 8 are fixed structural
    /// variants (the pre-PR-9 weight portfolio plus placement-pull /
    /// distance-only / eager-mapping relaxations); trials beyond that
    /// are seeded-jitter runs cycling `Rng(seed, stream)` substreams.
    /// The historical portfolio's winner anchors the result; a wider
    /// trial takes the win only when it is no worse on every tracked
    /// quality metric (SWAPs, physical qubits, depth, ESP) and
    /// strictly better on at least one, so more trials can only
    /// improve results. Trials race on the thread pool and stop early
    /// once their SWAP count exceeds a finished portfolio trial's (they
    /// can then no longer win); the winner is bit-identical at any
    /// thread count.
    int trials = 24;
    /// Delay non-critical gates whose qubits are unmapped (paper
    /// §3.3.1 Step 2). Disable only for ablation studies: mapping every
    /// frontier gate immediately forfeits the wider physical-qubit
    /// selection that drives SR-CaQR's SWAP savings.
    bool delay_noncritical = true;
};

/// SR-CaQR outcome.
struct SrCaqrResult
{
    circuit::Circuit circuit;      ///< physical, hardware-compliant
    int swaps_added = 0;
    int physical_qubits_used = 0;  ///< distinct physical qubits touched
    int reuses = 0;                ///< reclaim-and-reassign events
    int depth = 0;
    double duration_dt = 0.0;
};

/// Compiles a regular circuit onto @p backend (paper §3.3.1). An
/// oversized circuit reports `kInfeasible`.
util::StatusOr<SrCaqrResult> sr_caqr_or(const circuit::Circuit& logical,
                                        const arch::Backend& backend,
                                        const SrCaqrOptions& options = {});

/**
 * Compiles a commuting workload (paper §3.3.2): QS-CaQR finds the
 * duration sweet spot of reuse pairs, the resulting partial order is
 * materialized, and the regular SR-CaQR engine maps it. A workload
 * whose node count exceeds the backend reports `kInfeasible`, as does
 * an unreachable `qs_options.target_qubits`.
 */
util::StatusOr<SrCaqrResult> sr_caqr_commuting_or(
    const CommutingSpec& spec, const arch::Backend& backend,
    const SrCaqrOptions& options = {},
    const QsCommutingOptions& qs_options = {});

}  // namespace caqr::core

#endif  // CAQR_CORE_SR_CAQR_H
