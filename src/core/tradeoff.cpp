#include "core/tradeoff.h"

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

}  // namespace

std::vector<TradeoffPoint>
explore_tradeoff(const circuit::Circuit& circuit,
                 const arch::Backend* backend, const QsCaqrOptions& options)
{
    util::trace::Span span("tradeoff.explore");

    QsCaqrOptions sweep = options;
    sweep.target_qubits = -1;  // squeeze to the minimum
    auto result = qs_caqr_or(circuit, sweep).value();

    return util::FanOut(backend == nullptr ? 1 : options.num_threads,
                        options.pool)
        .map(result.versions.size(), [&](std::size_t index) {
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
    auto scored = util::FanOut(options).map(
        result.versions.size(), [&](std::size_t index) {
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

    return util::FanOut(backend == nullptr ? 1 : options.num_threads,
                        options.pool)
        .map(result.versions.size(), [&](std::size_t index) {
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
