/**
 * @file
 * Compile-time overhead study (paper §3.4): measures how QS-CaQR and
 * SR-CaQR compile time scales with circuit size. The paper derives
 * O(k n^3) for general circuits and O(k^3 n^4) worst case for QAOA
 * (Blossom matching per candidate), noting the worst case is not hit
 * in practice.
 *
 * The binary first asserts that the trace layer costs nothing when
 * disabled (< 2% on the candidate-pricing hot loop, reported on
 * stderr; a failure makes the process exit non-zero), then sweeps
 * QS-CaQR over BV and CC at widths 64, 128 and 256 on one thread and
 * emits a CSV (best-of-3 wall clock per width, then the fitted log-log
 * scaling exponent per family), then runs the google-benchmark scaling
 * study. One instrumented run leaves `bench_overhead.trace.json` and
 * `bench_overhead.metrics.csv` in the working directory.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "arch/backend.h"
#include "core/qs_caqr.h"
#include "core/sr_caqr.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"

namespace {

using namespace caqr;

// ---------------------------------------------------------------------
// Width sweep
// ---------------------------------------------------------------------

/// Best-of-@p reps wall-clock milliseconds for one full qs_caqr run.
double
time_qs_caqr_ms(const circuit::Circuit& circuit, int reps)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        auto result = core::qs_caqr_or(circuit).value();
        const auto stop = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(result.versions.size());
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        if (rep == 0 || ms < best) best = ms;
    }
    return best;
}

/// Least-squares slope of log(ms) over log(width): the empirical
/// exponent k in time ~ width^k.
double
loglog_exponent(const std::vector<int>& widths, const std::vector<double>& ms)
{
    const double n = static_cast<double>(widths.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        const double x = std::log(static_cast<double>(widths[i]));
        const double y = std::log(ms[i]);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

void
run_width_sweep()
{
    const std::vector<int> widths = {64, 128, 256};
    std::vector<std::pair<std::string, double>> exponents;
    std::printf("family,width,gates,versions,best_ms\n");
    for (const std::string family : {"bv", "cc"}) {
        std::vector<double> ms;
        for (int width : widths) {
            const auto circuit = family == "bv" ? apps::bv_circuit(width)
                                                : apps::cc_circuit(width);
            const std::size_t versions =
                core::qs_caqr_or(circuit).value().versions.size();
            ms.push_back(time_qs_caqr_ms(circuit, 3));
            std::printf("%s,%d,%zu,%zu,%.3f\n", family.c_str(), width,
                        circuit.size(), versions, ms.back());
        }
        exponents.emplace_back(family, loglog_exponent(widths, ms));
    }
    std::printf("\nfamily,loglog_exponent\n");
    for (const auto& [family, exponent] : exponents) {
        std::printf("%s,%.2f\n", family.c_str(), exponent);
    }
}

// ---------------------------------------------------------------------
// Disabled-mode instrumentation overhead assertion
// ---------------------------------------------------------------------

/// The trace layer claims zero cost when disabled: passes then skip
/// every clock read, span record and counter publish. Checked
/// empirically: the disabled path must not be slower than the enabled
/// path (which does strictly more work) beyond a 2% noise margin. A
/// BV_32 search takes only a few ms, so the statistic is the median,
/// over 21 pairs, of each pair's disabled/enabled ratio. Pairing
/// cancels host-speed drift between pairs, and the order within a pair
/// alternates so neither side always runs first.
bool
run_overhead_check()
{
    const auto circuit = apps::bv_circuit(32);
    const int pairs = 21;
    std::vector<double> ratios;
    ratios.reserve(pairs);
    for (int pair = 0; pair < pairs; ++pair) {
        double disabled_ms = 0.0;
        double enabled_ms = 0.0;
        for (int side = 0; side < 2; ++side) {
            const bool enabled = (side == 0) == (pair % 2 == 1);
            util::trace::set_enabled(enabled);
            (enabled ? enabled_ms : disabled_ms) =
                time_qs_caqr_ms(circuit, 1);
            util::trace::set_enabled(false);
            util::trace::reset();
        }
        ratios.push_back(disabled_ms / enabled_ms);
    }
    const double median_ratio = util::median(ratios);

    // One final instrumented run so the bench leaves its own per-run
    // observability record next to the CSV on stdout.
    util::trace::set_enabled(true);
    {
        auto result = core::qs_caqr_or(circuit).value();
        benchmark::DoNotOptimize(result.versions.size());
    }
    util::trace::write_run_artifacts("bench_overhead");
    util::trace::set_enabled(false);
    util::trace::reset();

    const bool ok = median_ratio <= 1.02;
    std::fprintf(stderr,
                 "trace overhead check: disabled/enabled = %.4f (median of"
                 " %d alternating pairs) -> %s\n",
                 median_ratio, pairs, ok ? "PASS" : "FAIL");
    return ok;
}

// ---------------------------------------------------------------------
// Scaling study (google-benchmark)
// ---------------------------------------------------------------------

void
BM_QsCaqrBv(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const auto circuit = apps::bv_circuit(n);
    for (auto _ : state) {
        auto result = core::qs_caqr_or(circuit).value();
        benchmark::DoNotOptimize(result.versions.size());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_QsCaqrBv)->Arg(4)->Arg(6)->Arg(8)->Arg(12)->Arg(16)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMillisecond);

void
BM_QsCaqrBvWide(benchmark::State& state)
{
    // The wide end of the same search: all-ones BV at 64..256 qubits.
    const int n = static_cast<int>(state.range(0));
    const auto circuit = apps::bv_circuit(n);
    for (auto _ : state) {
        auto result = core::qs_caqr_or(circuit).value();
        benchmark::DoNotOptimize(result.versions.size());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_QsCaqrBvWide)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMillisecond);

void
BM_SrCaqrBv(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const auto circuit = apps::bv_circuit(n);
    const auto backend = arch::Backend::fake_mumbai();
    for (auto _ : state) {
        auto result = core::sr_caqr_or(circuit, backend).value();
        benchmark::DoNotOptimize(result.swaps_added);
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_SrCaqrBv)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMillisecond);

void
BM_QsCommutingQaoa(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    util::Rng rng(5u + static_cast<unsigned>(n));
    core::CommutingSpec spec;
    spec.interaction = graph::random_graph(n, 0.3, rng);
    core::QsCommutingOptions options;
    options.max_candidates = 8;
    for (auto _ : state) {
        auto result = core::qs_caqr_commuting_or(spec, options).value();
        benchmark::DoNotOptimize(result.versions.size());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_QsCommutingQaoa)->Arg(8)->Arg(12)->Arg(16)->Arg(24)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMillisecond);

void
BM_ReusePairEnumeration(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const auto circuit = apps::bv_circuit(n);
    for (auto _ : state) {
        circuit::CircuitDag dag(circuit);
        auto pairs = core::find_reuse_pairs(dag);
        benchmark::DoNotOptimize(pairs.size());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_ReusePairEnumeration)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMicrosecond);

}  // namespace

int
main(int argc, char** argv)
{
    const bool overhead_ok = run_overhead_check();
    run_width_sweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return overhead_ok ? 0 : 1;
}
