#include "core/tradeoff.h"

#include <chrono>
#include <numeric>

#include "circuit/dag.h"
#include "transpile/transpiler.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

namespace {

/// Maps @p circuit with the baseline transpiler, whose trials fan out
/// on @p common's pool and thread budget.
void
fill_compiled_metrics(TradeoffPoint* point, const circuit::Circuit& circuit,
                      const arch::Backend* backend, bool keep_rzz,
                      const CommonOptions& common)
{
    if (backend == nullptr) return;
    transpile::TranspileOptions options;
    options.num_threads = common.num_threads;
    options.pool = common.pool;
    options.keep_rzz = keep_rzz;
    auto compiled = transpile::transpile_or(circuit, *backend, options).value();
    point->compiled_depth = compiled.depth;
    point->compiled_duration_dt = compiled.duration_dt;
    point->swaps = compiled.swaps_added;
}

/**
 * Evaluates fn(0..n-1) through @p fan_out. Results come back indexed
 * by version, so downstream lowest-index tie-breaks pick the same
 * winner at any thread count. When tracing is enabled the per-task
 * wall clock is summed and published against the batch wall clock as
 * `tradeoff.parallel_speedup`.
 */
template <typename Fn>
auto
map_versions(std::size_t n, util::FanOut&& fan_out, Fn&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
{
    if (!util::trace::enabled()) return fan_out.map(n, fn);

    std::vector<double> task_ms(n, 0.0);
    auto timed = [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        auto result = fn(i);
        task_ms[i] = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        return result;
    };
    const auto batch_start = std::chrono::steady_clock::now();
    auto results = fan_out.map(n, timed);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_start)
            .count();
    const double work_ms =
        std::accumulate(task_ms.begin(), task_ms.end(), 0.0);
    util::trace::counter_add("tradeoff.versions_transpiled",
                             static_cast<double>(n));
    util::trace::counter_add("tradeoff.transpile_work_ms", work_ms);
    util::trace::counter_add("tradeoff.transpile_wall_ms", wall_ms);
    if (wall_ms > 0.0) {
        util::trace::gauge_set("tradeoff.parallel_speedup",
                               work_ms / wall_ms);
    }
    return results;
}

}  // namespace

std::vector<TradeoffPoint>
explore_tradeoff(const circuit::Circuit& circuit,
                 const arch::Backend* backend, const QsCaqrOptions& options)
{
    util::trace::Span span("tradeoff.explore");

    QsCaqrOptions sweep = options;
    sweep.target_qubits = -1;  // squeeze to the minimum
    auto result = qs_caqr_or(circuit, sweep).value();

    return map_versions(
        result.versions.size(),
        util::FanOut(backend == nullptr ? 1 : options.num_threads,
                     options.pool),
        [&](std::size_t index) {
            const auto& version = result.versions[index];
            TradeoffPoint point;
            point.qubits = version.qubits;
            point.logical_depth = version.depth;
            point.logical_duration_dt = version.duration_dt;
            fill_compiled_metrics(&point, version.circuit, backend,
                                  /*keep_rzz=*/false, options);
            return point;
        });
}

EspSelection
select_best_by_esp(const QsCaqrResult& result, const arch::Backend& backend,
                   const transpile::TranspileOptions& options)
{
    util::trace::Span span("tradeoff.select_esp");

    struct Scored
    {
        double esp = 0.0;
        circuit::Circuit compiled;
    };
    auto scored = map_versions(
        result.versions.size(), util::FanOut(options),
        [&](std::size_t index) {
            auto compiled = transpile::transpile_or(
                result.versions[index].circuit, backend, options).value();
            Scored entry;
            entry.esp = arch::estimated_success_probability(
                compiled.circuit, backend);
            entry.compiled = std::move(compiled.circuit);
            return entry;
        });

    // Strict-> scan from index 0: the lowest-index version wins ties,
    // exactly as the serial walk did.
    EspSelection best;
    bool have_best = false;
    for (std::size_t index = 0; index < scored.size(); ++index) {
        if (!have_best || scored[index].esp > best.esp) {
            best.version_index = index;
            best.esp = scored[index].esp;
            best.compiled = std::move(scored[index].compiled);
            have_best = true;
        }
    }
    return best;
}

std::vector<TradeoffPoint>
explore_tradeoff_commuting(const CommutingSpec& spec,
                           const arch::Backend* backend,
                           const QsCommutingOptions& options)
{
    util::trace::Span span("tradeoff.explore_commuting");

    QsCommutingOptions sweep = options;
    sweep.target_qubits = -1;
    auto result = qs_caqr_commuting_or(spec, sweep).value();

    return map_versions(
        result.versions.size(),
        util::FanOut(backend == nullptr ? 1 : options.num_threads,
                     options.pool),
        [&](std::size_t index) {
            const auto& version = result.versions[index];
            TradeoffPoint point;
            point.qubits = version.qubits;
            point.logical_depth = version.schedule.depth;
            point.logical_duration_dt = version.schedule.duration_dt;
            fill_compiled_metrics(&point, version.schedule.circuit, backend,
                                  /*keep_rzz=*/true, options);
            return point;
        });
}

}  // namespace caqr::core
