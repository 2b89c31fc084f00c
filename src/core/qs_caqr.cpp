#include "core/qs_caqr.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "circuit/dag.h"
#include "circuit/timing.h"
#include "core/reuse_transform.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

namespace {

/// Fills metrics of a version from its circuit's DAG.
void
fill_version_metrics(const circuit::CircuitDag& dag, QsVersion* version)
{
    version->qubits = version->circuit.active_qubit_count();
    version->depth = dag.depth();
    circuit::LogicalDurations durations;
    version->duration_dt = dag.duration(durations);
}

}  // namespace

const QsVersion&
QsCaqrResult::best_by_depth() const
{
    CAQR_CHECK(!versions.empty(), "no versions generated");
    const QsVersion* best = &versions.front();
    for (const auto& version : versions) {
        if (version.depth < best->depth) best = &version;
    }
    return *best;
}

const QsVersion&
QsCaqrResult::best_by_duration() const
{
    CAQR_CHECK(!versions.empty(), "no versions generated");
    const QsVersion* best = &versions.front();
    for (const auto& version : versions) {
        if (version.duration_dt < best->duration_dt) best = &version;
    }
    return *best;
}

namespace {

/// Pair-selection policy for one greedy sweep.
enum class SweepPolicy {
    /// Minimize the post-splice critical path (the paper's §3.2.1 rule).
    kMetricFirst,
    /// Prefer the earliest-finishing target, breaking ties by critical
    /// path. This chains wires in temporal order and avoids the
    /// "crossed merge" dead ends that pure cost greed can steer into,
    /// reliably reaching the minimum qubit count (e.g. BV_n -> 2).
    kOrderFirst,
};

/**
 * One greedy sweep. Each step builds the current version's DAG once: it
 * yields the version's metrics, the valid pairs (qubit-level
 * Conditions 1 and 2) and the closed-form splice cost of every
 * candidate (SpliceCosts). Adds the candidates priced to
 * @p candidates.
 */
std::vector<QsVersion>
run_sweep(const circuit::Circuit& circuit, const QsCaqrOptions& options,
          SweepPolicy policy, long long* candidates)
{
    std::vector<QsVersion> versions;

    QsVersion original;
    original.circuit = circuit;
    original.orig_of.resize(static_cast<std::size_t>(circuit.num_qubits()));
    for (int q = 0; q < circuit.num_qubits(); ++q) {
        original.orig_of[static_cast<std::size_t>(q)] = q;
    }
    versions.push_back(std::move(original));

    circuit::LogicalDurations durations;
    circuit::UnitDepthModel unit;
    const bool by_duration = options.metric == ReuseMetric::kDuration;
    const double dummy_weight =
        by_duration ? circuit::LogicalDurations::kMeasure +
                          circuit::LogicalDurations::kConditionedGate
                    : 1.0;
    const circuit::DurationModel& model =
        by_duration ? static_cast<const circuit::DurationModel&>(durations)
                    : static_cast<const circuit::DurationModel&>(unit);

    while (true) {
        QsVersion& current = versions.back();
        const circuit::CircuitDag dag(current.circuit);
        fill_version_metrics(dag, &current);
        if (options.target_qubits >= 0 &&
            current.qubits <= options.target_qubits) {
            break;
        }
        const auto pairs = find_reuse_pairs(dag);
        if (pairs.empty()) break;
        *candidates += static_cast<long long>(pairs.size());

        const SpliceCosts costs(dag, model, dummy_weight);

        // Selection in candidate order; ties keep the first candidate.
        double best_primary = std::numeric_limits<double>::infinity();
        double best_secondary = std::numeric_limits<double>::infinity();
        ReusePair best{};
        for (const auto& pair : pairs) {
            double primary = costs.cost(pair);
            double secondary = costs.qubit_finish(pair.target);
            if (policy == SweepPolicy::kOrderFirst) {
                std::swap(primary, secondary);
            }
            if (primary < best_primary - 1e-9 ||
                (primary < best_primary + 1e-9 &&
                 secondary < best_secondary - 1e-9)) {
                best_primary = primary;
                best_secondary = secondary;
                best = pair;
            }
        }

        QsVersion next;
        next.applied = current.applied;
        next.applied.push_back(
            ReusePair{current.orig_of[static_cast<std::size_t>(best.source)],
                      current.orig_of[static_cast<std::size_t>(best.target)]});
        auto transformed = apply_reuse(dag, best, current.orig_of);
        next.circuit = std::move(transformed.circuit);
        next.orig_of = std::move(transformed.orig_of);
        // Invalidates `current` and the DAG's circuit; neither is used
        // past this point.
        versions.push_back(std::move(next));
    }
    return versions;
}

/// Best-effort run (no target validation): squeezes as far as the
/// budget allows and records whether the target was reached.
QsCaqrResult
run_qs_caqr(const circuit::Circuit& circuit, const QsCaqrOptions& options)
{
    std::optional<util::trace::Span> span;
    if (options.trace) span.emplace("qs_caqr");

    // Two sweeps explore complementary regions of the search space
    // (paper: "we explore the search space of qubit reuse ... and
    // choose the best reuse strategy"): the cost-greedy sweep finds
    // efficient shallow savings, the order-preserving sweep reaches
    // deep savings. Merge by qubit count, best metric wins.
    long long candidates = 0;
    const auto metric_sweep = run_sweep(
        circuit, options, SweepPolicy::kMetricFirst, &candidates);
    const auto order_sweep = run_sweep(
        circuit, options, SweepPolicy::kOrderFirst, &candidates);

    const bool by_duration = options.metric == ReuseMetric::kDuration;
    auto metric_of = [by_duration](const QsVersion& version) {
        return by_duration ? version.duration_dt
                           : static_cast<double>(version.depth);
    };

    std::map<int, const QsVersion*> by_count;
    for (const auto* sweep : {&metric_sweep, &order_sweep}) {
        for (const auto& version : *sweep) {
            auto [it, inserted] = by_count.try_emplace(version.qubits,
                                                       &version);
            if (!inserted && metric_of(version) < metric_of(*it->second)) {
                it->second = &version;
            }
        }
    }

    QsCaqrResult result;
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        result.versions.push_back(*it->second);
    }
    result.reached_target =
        options.target_qubits < 0 ||
        result.versions.back().qubits <= options.target_qubits;

    if (options.trace && util::trace::enabled()) {
        // Every step commits one version on top of each sweep's input.
        util::trace::counter_add(
            "qs_caqr.steps",
            static_cast<double>(metric_sweep.size() + order_sweep.size() -
                                2));
        util::trace::counter_add("qs_caqr.candidates",
                                 static_cast<double>(candidates));
    }
    return result;
}

}  // namespace

util::StatusOr<QsCaqrResult>
qs_caqr_or(const circuit::Circuit& circuit, const QsCaqrOptions& options)
{
    if (options.target_qubits < -1 || options.target_qubits == 0) {
        return util::Status::invalid_argument(
            "target_qubits must be positive or -1 (minimum), got " +
            std::to_string(options.target_qubits));
    }
    QsCaqrResult result = run_qs_caqr(circuit, options);
    if (!result.reached_target) {
        return util::Status::infeasible(
            "cannot reach " + std::to_string(options.target_qubits) +
            " qubits (minimum is " +
            std::to_string(result.versions.back().qubits) + ")");
    }
    return result;
}

namespace {

/// Work counts of one commuting search, published once per run.
struct CommutingTally
{
    long long candidates = 0;
    long long schedules_evaluated = 0;
};

/// One greedy commuting sweep. When @p evaluate_candidates is true
/// every valid candidate (up to the budget) is scheduled — fanned out
/// through util::FanOut — and the cheapest (by duration, ties to the
/// heuristically-first candidate) wins, the paper's §3.2.2 evaluation.
/// When false, candidates follow the *temporal order* of the current
/// schedule — source retiring earliest, target retiring latest — and
/// the first valid one is committed. Temporal chaining never crosses
/// the schedule's time arrow, so it reaches the deep-saving region
/// (paper Fig 3: 64 -> ~5 qubits) that duration greed dead-ends before.
std::vector<QsCommutingVersion>
run_commuting_sweep(const CommutingSpec& spec,
                    const QsCommutingOptions& options,
                    bool evaluate_candidates, CommutingTally* tally)
{
    const auto& interaction = spec.interaction;
    const int n = interaction.num_nodes();

    std::vector<QsCommutingVersion> versions;
    QsCommutingVersion base;
    base.schedule = schedule_commuting(spec, {}, options.scheduling);
    base.qubits = base.schedule.wires_used;
    versions.push_back(std::move(base));

    std::vector<bool> is_source(static_cast<std::size_t>(n), false);
    std::vector<bool> is_target(static_cast<std::size_t>(n), false);
    util::FanOut fan_out(options);

    while (options.target_qubits < 0 ||
           versions.back().qubits > options.target_qubits) {
        const auto& current = versions.back();

        // Retirement position of each problem qubit in the current
        // schedule (= position of its measurement).
        std::vector<int> retire_pos(static_cast<std::size_t>(n), 0);
        for (std::size_t i = 0; i < current.schedule.circuit.size();
             ++i) {
            const auto& instr = current.schedule.circuit.at(i);
            if (instr.kind == circuit::GateKind::kMeasure &&
                instr.clbit >= 0 && instr.clbit < n) {
                retire_pos[instr.clbit] = static_cast<int>(i);
            }
        }

        struct Candidate
        {
            ReusePair pair;
            long long heuristic;
        };
        std::vector<Candidate> candidates;
        for (int s = 0; s < n; ++s) {
            if (is_source[s]) continue;
            for (int t = 0; t < n; ++t) {
                if (s == t || is_target[t]) continue;
                if (interaction.has_edge(s, t)) continue;
                long long heuristic;
                if (evaluate_candidates) {
                    // Cheap-first pre-ranking for the evaluation budget.
                    heuristic =
                        interaction.degree(s) + interaction.degree(t);
                } else {
                    // Temporal order: earliest-retiring source first,
                    // latest-retiring target first.
                    const long long span = static_cast<long long>(
                        current.schedule.circuit.size() + 1);
                    heuristic = static_cast<long long>(retire_pos[s]) *
                                    span -
                                retire_pos[t];
                }
                candidates.push_back({ReusePair{s, t}, heuristic});
            }
        }
        if (candidates.empty()) break;
        tally->candidates += static_cast<long long>(candidates.size());
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate& a, const Candidate& b) {
                             return a.heuristic < b.heuristic;
                         });

        const Candidate* best = nullptr;
        CommutingSchedule best_schedule;
        if (evaluate_candidates) {
            // The first max_candidates *valid* candidates in heuristic
            // order form the evaluation batch (identical to the serial
            // walk, which skipped cyclic candidates without charging
            // them to the budget).
            std::vector<const Candidate*> valid;
            std::vector<std::vector<ReusePair>> pair_sets;
            for (const auto& candidate : candidates) {
                if (static_cast<int>(valid.size()) >=
                    options.max_candidates) {
                    break;
                }
                auto pairs = current.pairs;
                pairs.push_back(candidate.pair);
                if (!commuting_pairs_valid(interaction, pairs,
                                           spec.layers)) {
                    continue;
                }
                valid.push_back(&candidate);
                pair_sets.push_back(std::move(pairs));
            }
            if (valid.empty()) break;  // every candidate was cyclic

            tally->schedules_evaluated +=
                static_cast<long long>(valid.size());
            std::vector<CommutingSchedule> schedules =
                fan_out.map(valid.size(), [&](std::size_t i) {
                    return schedule_commuting(spec, pair_sets[i],
                                              options.scheduling);
                });
            // Min duration, ties to the lowest candidate index — the
            // same winner the serial strict-< walk picked.
            std::size_t best_index = 0;
            for (std::size_t i = 1; i < schedules.size(); ++i) {
                if (schedules[i].duration_dt <
                    schedules[best_index].duration_dt) {
                    best_index = i;
                }
            }
            best = valid[best_index];
            best_schedule = std::move(schedules[best_index]);
        } else {
            for (const auto& candidate : candidates) {
                auto pairs = current.pairs;
                pairs.push_back(candidate.pair);
                if (!commuting_pairs_valid(interaction, pairs,
                                           spec.layers)) {
                    continue;
                }
                best = &candidate;
                best_schedule =
                    schedule_commuting(spec, pairs, options.scheduling);
                break;  // temporal: take the first valid candidate
            }
            if (best == nullptr) break;  // every candidate was cyclic
        }

        QsCommutingVersion next;
        next.pairs = current.pairs;
        next.pairs.push_back(best->pair);
        next.schedule = std::move(best_schedule);
        next.qubits = next.schedule.wires_used;
        is_source[best->pair.source] = true;
        is_target[best->pair.target] = true;
        versions.push_back(std::move(next));
    }
    return versions;
}

/// Best-effort commuting run; see run_qs_caqr.
QsCommutingResult
run_qs_caqr_commuting(const CommutingSpec& spec,
                      const QsCommutingOptions& options)
{
    std::optional<util::trace::Span> span;
    if (options.trace) span.emplace("qs_caqr_commuting");

    QsCommutingResult result;
    result.coloring_bound = min_qubits_by_coloring(spec.interaction);

    CommutingTally tally;
    const auto eval_sweep = run_commuting_sweep(
        spec, options, /*evaluate_candidates=*/true, &tally);
    const auto chain_sweep = run_commuting_sweep(
        spec, options, /*evaluate_candidates=*/false, &tally);

    // Budget-directed phase: the incremental sweeps dead-end once the
    // accumulated dependence graph makes every further pair cyclic;
    // direct budget scheduling (paper §2.2) reaches the deep-saving
    // region down toward the coloring bound.
    std::vector<QsCommutingVersion> budget_versions;
    {
        int start = spec.interaction.num_nodes();
        for (const auto* sweep : {&eval_sweep, &chain_sweep}) {
            if (!sweep->empty()) {
                start = std::min(start, sweep->back().qubits);
            }
        }
        const int floor_count =
            std::max(1, options.target_qubits >= 0
                            ? options.target_qubits
                            : result.coloring_bound);
        for (int budget = start - 1; budget >= floor_count; --budget) {
            std::vector<ReusePair> pairs;
            auto schedule = schedule_with_budget(spec, budget,
                                                 options.scheduling,
                                                 &pairs);
            if (!schedule.has_value()) break;  // infeasible below here
            QsCommutingVersion version;
            version.pairs = std::move(pairs);
            version.schedule = std::move(*schedule);
            version.qubits = version.schedule.wires_used;
            budget_versions.push_back(std::move(version));
        }
    }

    std::map<int, const QsCommutingVersion*> by_count;
    for (const auto* sweep :
         std::initializer_list<const std::vector<QsCommutingVersion>*>{
             &eval_sweep, &chain_sweep, &budget_versions}) {
        for (const auto& version : *sweep) {
            auto [it, inserted] =
                by_count.try_emplace(version.qubits, &version);
            if (!inserted && version.schedule.duration_dt <
                                 it->second->schedule.duration_dt) {
                it->second = &version;
            }
        }
    }
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        result.versions.push_back(*it->second);
    }

    result.reached_target =
        options.target_qubits < 0 ||
        result.versions.back().qubits <= options.target_qubits;

    if (options.trace && util::trace::enabled()) {
        util::trace::counter_add("qs_commuting.candidates",
                                 static_cast<double>(tally.candidates));
        util::trace::counter_add(
            "qs_commuting.schedules_evaluated",
            static_cast<double>(tally.schedules_evaluated));
        util::trace::counter_add(
            "qs_commuting.budget_schedules",
            static_cast<double>(budget_versions.size()));
    }
    return result;
}

}  // namespace

util::StatusOr<QsCommutingResult>
qs_caqr_commuting_or(const CommutingSpec& spec,
                     const QsCommutingOptions& options)
{
    if (options.target_qubits < -1 || options.target_qubits == 0) {
        return util::Status::invalid_argument(
            "target_qubits must be positive or -1 (minimum), got " +
            std::to_string(options.target_qubits));
    }
    QsCommutingResult result = run_qs_caqr_commuting(spec, options);
    if (!result.reached_target) {
        return util::Status::infeasible(
            "cannot reach " + std::to_string(options.target_qubits) +
            " qubits (coloring bound is " +
            std::to_string(result.coloring_bound) + ")");
    }
    return result;
}

}  // namespace caqr::core
