/**
 * @file
 * Machine-readable performance + quality baseline for the compile
 * pipeline.
 *
 * Runs a fixed corpus — every circuits/*.qasm under the baseline,
 * QS-CaQR, and SR-CaQR strategies, generated 128- and 256-qubit BV
 * under QS-CaQR, two synthetic QAOA commuting workloads under
 * QS-CaQR-commuting, and two simulator-backed entries
 * (single-threaded and shot-parallel) —
 * through a serial `caqr::Service` (the raced-routing entry through an
 * eight-thread one) with warmup + repeat sampling, and
 * emits a schema-versioned `BENCH_caqr.json`:
 *
 *   { "schema_version": 1, "generator": "bench_perf",
 *     "git_sha": "...", "threads": 1, "hardware_concurrency": N,
 *     "warmup": 1, "repeats": 3,
 *     "benchmarks": [ { "name", "strategy", "backend",
 *       "wall_ms_median", "wall_ms_p90", "wall_ms_min",
 *       "qubits", "depth", "swaps", "reuses", "esp",
 *       "shots_per_sec" (sim entries only) }, ... ],
 *     "metrics": { <util::metrics::Snapshot JSON> } }
 *
 * Quality fields (qubits/depth/swaps/reuses/esp) are deterministic;
 * wall fields are medians over `--repeats` timed runs after
 * `--warmup` discarded runs. `tools/check_regression.py` diffs two
 * such documents and gates CI. Entries whose pipeline legitimately
 * fails (e.g. baseline mapping of 64-qubit BV onto 27-qubit Mumbai is
 * infeasible) are reported on stderr and excluded — nothing is
 * dropped silently.
 *
 * Usage: bench_perf [--out PATH] [--repeats N] [--warmup N]
 *                   [--corpus DIR] [--backend B]
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmarks.h"
#include "core/commuting.h"
#include "graph/generators.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace caqr;

constexpr int kSchemaVersion = 1;

/// Short git revision of the working tree: $CAQR_GIT_SHA wins (CI
/// sets it from the checkout), then `git rev-parse`, then "unknown".
std::string
git_sha()
{
    if (const char* env = std::getenv("CAQR_GIT_SHA");
        env != nullptr && *env != '\0') {
        return env;
    }
    std::string sha;
    if (FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null",
                             "r")) {
        char buffer[64];
        if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
            sha = buffer;
        }
        ::pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
    }
    return sha.empty() ? "unknown" : sha;
}

std::string
json_number(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/// One corpus entry: a request prototype plus its stable identity.
struct BenchCase
{
    std::string name;
    CompileRequest request;
    bool simulate = false;
    /// Compiled on the eight-thread service, whose pool races the
    /// request's parallel sections, instead of the serial one.
    bool raced = false;
};

/// One finished entry, quality + sampled timing.
struct BenchResult
{
    std::string name;
    std::string strategy;
    std::string backend;
    double wall_ms_median = 0.0;
    double wall_ms_p90 = 0.0;
    double wall_ms_min = 0.0;
    int qubits = 0;
    int depth = 0;
    int swaps = 0;
    int reuses = 0;
    double esp = 0.0;
    std::optional<double> shots_per_sec;
    /// Template-bind entries only: fresh-compile median over bind
    /// median for the same skeleton (compile-once / bind-many payoff).
    std::optional<double> bind_speedup;
    /// The raced-routing entry only: serial 32-trial median over the
    /// 8-thread raced median for the same request. Emitted only on
    /// machines with >= 8 hardware threads — anything smaller cannot
    /// demonstrate the scaling and would only baseline noise.
    std::optional<double> trial_speedup;
};

/// Wall-clock ms of the simulate stage, if the request ran one.
std::optional<double>
simulate_stage_ms(const CompileReport& report)
{
    for (const auto& stage : report.stages) {
        if (stage.stage == "simulate") return stage.ms;
    }
    return std::nullopt;
}

/// The fixed corpus: every circuits/*.qasm x {baseline, qs_caqr,
/// sr_caqr}, bv_128 and bv_256 under qs_caqr, two synthetic QAOA interaction graphs under
/// qs_commuting, and bv_10 with the shot simulator attached at one
/// and eight threads.
std::vector<BenchCase>
build_corpus(const std::string& corpus_dir, const std::string& backend)
{
    std::vector<BenchCase> cases;

    CompileRequest prototype;
    prototype.backend = backend;
    prototype.qs.num_threads = 1;
    prototype.qs_commuting.num_threads = 1;
    prototype.transpile.num_threads = 1;
    prototype.sr.num_threads = 1;

    for (const Strategy strategy :
         {Strategy::kBaseline, Strategy::kQsCaqr, Strategy::kSrCaqr}) {
        CompileRequest request = prototype;
        request.strategy = strategy;
        const auto requests = requests_from_path(corpus_dir, request);
        if (!requests.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         requests.status().to_string().c_str());
            std::exit(2);
        }
        for (const auto& expanded : *requests) {
            BenchCase entry;
            entry.request = expanded;
            cases.push_back(std::move(entry));
        }
    }

    // Wide QS-CaQR probes beyond the corpus, generated rather than
    // checked in (other tests iterate circuits/): all-ones BV, the
    // paper's star-graph worst case, where the reuse search dominates.
    for (const int width : {128, 256}) {
        BenchCase entry;
        entry.name = "bv_" + std::to_string(width);
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = Strategy::kQsCaqr;
        entry.request.circuit = apps::bv_circuit(width);
        cases.push_back(std::move(entry));
    }

    // Commuting workloads have no .qasm form; fixed seeds keep the
    // interaction graphs — and so the quality metrics — bit-stable.
    for (const auto& [nodes, prob, seed] :
         {std::tuple<int, double, unsigned>{12, 0.30, 7u},
          std::tuple<int, double, unsigned>{16, 0.25, 11u}}) {
        util::Rng rng(seed);
        core::CommutingSpec spec;
        spec.interaction = graph::random_graph(nodes, prob, rng);
        BenchCase entry;
        entry.name = "qaoa_" + std::to_string(nodes);
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = Strategy::kQsCommuting;
        entry.request.commuting = spec;
        cases.push_back(std::move(entry));
    }

    // Simulator throughput probes: small circuit, reuse-level width 2,
    // so the statevector stays tiny and shots/sec measures the
    // dynamic-circuit kernel, not allocation. The shot count is large
    // enough to amortize program compilation and timer granularity —
    // shots_per_sec is per-shot normalized, so raising it only reduces
    // noise. One entry per thread mode: single-threaded (the kernel
    // number CI gates on) and the shot-parallel path.
    for (const auto& [suffix, threads] :
         {std::pair<const char*, int>{"+sim", 1},
          std::pair<const char*, int>{"+sim8", 8}}) {
        BenchCase sim_entry;
        sim_entry.name = std::string("bv_10") + suffix;
        sim_entry.request = prototype;
        sim_entry.request.name = sim_entry.name;
        sim_entry.request.strategy = Strategy::kQsCaqr;
        sim_entry.request.qasm_file = corpus_dir + "/bv_10.qasm";
        sim_entry.request.simulate = true;
        sim_entry.request.sim.shots = 65536;
        sim_entry.request.sim.num_threads = threads;
        sim_entry.simulate = true;
        cases.push_back(std::move(sim_entry));
    }

    // Raced-routing scaling probes: the most routing-dominated corpus
    // circuit at 32 trials, serial vs raced on the eight-thread
    // service. The trial winner is bit-identical between the two (the
    // quality columns must match); only the wall time may differ, and
    // the +route8 entry carries `trial_speedup` for CI to gate on.
    for (const auto& [suffix, threads] :
         {std::pair<const char*, int>{"+route", 1},
          std::pair<const char*, int>{"+route8", 8}}) {
        BenchCase entry;
        entry.name = std::string("multiply_13") + suffix;
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = Strategy::kBaseline;
        entry.request.qasm_file = corpus_dir + "/multiply_13.qasm";
        entry.request.transpile.trials = 32;
        entry.request.transpile.num_threads = threads;
        entry.raced = threads > 1;
        cases.push_back(std::move(entry));
    }

    return cases;
}

void
write_json(std::ostream& os, const std::vector<BenchResult>& results,
           const util::metrics::Snapshot& snapshot, int warmup,
           int repeats)
{
    os << "{\"schema_version\":" << kSchemaVersion
       << ",\"generator\":\"bench_perf\""
       << ",\"git_sha\":\"" << git_sha() << "\""
       << ",\"threads\":1"
       << ",\"hardware_concurrency\":"
       << std::thread::hardware_concurrency()
       << ",\"warmup\":" << warmup << ",\"repeats\":" << repeats
       << ",\n\"benchmarks\":[";
    bool first = true;
    for (const auto& result : results) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << result.name << "\""
           << ",\"strategy\":\"" << result.strategy << "\""
           << ",\"backend\":\"" << result.backend << "\""
           << ",\"wall_ms_median\":" << json_number(result.wall_ms_median)
           << ",\"wall_ms_p90\":" << json_number(result.wall_ms_p90)
           << ",\"wall_ms_min\":" << json_number(result.wall_ms_min)
           << ",\"qubits\":" << result.qubits
           << ",\"depth\":" << result.depth
           << ",\"swaps\":" << result.swaps
           << ",\"reuses\":" << result.reuses
           << ",\"esp\":" << json_number(result.esp);
        if (result.shots_per_sec.has_value()) {
            os << ",\"shots_per_sec\":"
               << json_number(*result.shots_per_sec);
        }
        if (result.bind_speedup.has_value()) {
            os << ",\"bind_speedup\":"
               << json_number(*result.bind_speedup);
        }
        if (result.trial_speedup.has_value()) {
            os << ",\"trial_speedup\":"
               << json_number(*result.trial_speedup);
        }
        os << "}";
    }
    os << "\n],\n\"metrics\":";
    snapshot.write_json(os);
    os << "}\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_caqr.json";
    std::string corpus_dir = CAQR_CIRCUITS_DIR;
    std::string backend = "FakeMumbai";
    int repeats = 3;
    int warmup = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (arg == "--repeats" && i + 1 < argc) {
            repeats = std::stoi(argv[++i]);
        } else if (arg == "--warmup" && i + 1 < argc) {
            warmup = std::stoi(argv[++i]);
        } else if (arg == "--corpus" && i + 1 < argc) {
            corpus_dir = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            backend = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_perf [--out PATH] [--repeats N]"
                         " [--warmup N] [--corpus DIR] [--backend B]\n");
            return 2;
        }
    }
    if (repeats < 1 || warmup < 0) {
        std::fprintf(stderr, "error: need --repeats >= 1, --warmup >= 0\n");
        return 2;
    }

    // One serial service: per-entry timings must not contend with each
    // other, and quality results are thread-count-independent anyway.
    // The raced-routing entry alone runs on an eight-thread service,
    // since a request's sections race only on its service's pool.
    Service service({.num_threads = 1});
    Service raced_service({.num_threads = 8});
    const auto corpus = build_corpus(corpus_dir, backend);

    std::vector<BenchResult> results;
    std::vector<std::string> skipped;
    for (const auto& entry : corpus) {
        Service& runner = entry.raced ? raced_service : service;
        for (int i = 0; i < warmup; ++i) runner.compile(entry.request);

        std::vector<double> wall_ms;
        CompileReport report;
        for (int i = 0; i < repeats; ++i) {
            report = runner.compile(entry.request);
            if (!report.ok()) break;
            wall_ms.push_back(report.total_ms());
        }
        const std::string label =
            (entry.name.empty() ? report.name : entry.name) + "/" +
            report.strategy;
        if (!report.ok()) {
            std::fprintf(stderr, "skip %s: %s\n", label.c_str(),
                         report.status.to_string().c_str());
            skipped.push_back(label);
            continue;
        }

        BenchResult result;
        result.name = entry.name.empty() ? report.name : entry.name;
        result.strategy = report.strategy;
        result.backend = report.backend;
        result.wall_ms_median = util::median(wall_ms);
        result.wall_ms_p90 = util::percentile(wall_ms, 90);
        result.wall_ms_min = util::min_value(wall_ms);
        result.qubits = report.qubits;
        result.depth = report.depth;
        result.swaps = report.swaps;
        result.reuses = report.reuses;
        result.esp = report.esp;
        if (entry.simulate) {
            if (const auto sim_ms = simulate_stage_ms(report);
                sim_ms.has_value() && *sim_ms > 0.0) {
                result.shots_per_sec =
                    static_cast<double>(entry.request.sim.shots) *
                    1000.0 / *sim_ms;
            }
        }
        results.push_back(std::move(result));
    }

    // Multi-trial routing scaling: serial median over raced median
    // for the +route pair, attached to the raced entry. Skipped below
    // 8 hardware threads (see BenchResult::trial_speedup).
    if (std::thread::hardware_concurrency() >= 8) {
        const BenchResult* serial_route = nullptr;
        BenchResult* raced_route = nullptr;
        for (auto& result : results) {
            if (result.name == "multiply_13+route") serial_route = &result;
            if (result.name == "multiply_13+route8") raced_route = &result;
        }
        if (serial_route != nullptr && raced_route != nullptr &&
            raced_route->wall_ms_median > 0.0) {
            raced_route->trial_speedup =
                serial_route->wall_ms_median / raced_route->wall_ms_median;
        }
    }

    // Template-bind probe: the qaoa_12 skeleton through the
    // compile-once / bind-many API. The fresh cost is the qaoa_12
    // corpus median just measured; the bind cost is sampled over the
    // same repeat count with per-repeat angles (see bench_template for
    // the full sweep + equivalence harness).
    for (const auto& fresh : results) {
        if (fresh.name != "qaoa_12" || fresh.strategy != "qs_commuting") {
            continue;
        }
        util::Rng rng(7u);
        CompileRequest request;
        request.name = "qaoa_12";
        request.backend = backend;
        request.strategy = Strategy::kQsCommuting;
        request.qs_commuting.num_threads = 1;
        request.commuting.emplace();
        request.commuting->interaction = graph::random_graph(12, 0.30, rng);
        const auto handle = service.compile_template(request);
        if (!handle.ok()) {
            std::fprintf(stderr, "skip qaoa_12+bind: %s\n",
                         handle.status().to_string().c_str());
            skipped.push_back("qaoa_12+bind/qs_commuting");
            break;
        }
        std::vector<double> bind_ms;
        CompileReport bound;
        for (int i = 0; i < warmup + repeats; ++i) {
            const auto report = service.bind(
                *handle, {{2.0 * (0.7 + 0.01 * i), 2.0 * (0.3 + 0.01 * i)}});
            if (!report.ok()) break;
            if (i >= warmup) {
                bind_ms.push_back(report->total_ms());
                bound = *report;
            }
        }
        if (bind_ms.size() != static_cast<std::size_t>(repeats)) {
            std::fprintf(stderr, "skip qaoa_12+bind: bind failed\n");
            skipped.push_back("qaoa_12+bind/qs_commuting");
            break;
        }
        BenchResult result;
        result.name = "qaoa_12+bind";
        result.strategy = bound.strategy;
        result.backend = bound.backend;
        result.wall_ms_median = util::median(bind_ms);
        result.wall_ms_p90 = util::percentile(bind_ms, 90);
        result.wall_ms_min = util::min_value(bind_ms);
        result.qubits = bound.qubits;
        result.depth = bound.depth;
        result.swaps = bound.swaps;
        result.reuses = bound.reuses;
        result.esp = bound.esp;
        if (result.wall_ms_median > 0.0) {
            result.bind_speedup =
                fresh.wall_ms_median / result.wall_ms_median;
        }
        results.push_back(std::move(result));
        break;
    }

    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "error: cannot write '%s'\n", out.c_str());
        return 2;
    }
    write_json(os, results, service.metrics_snapshot(), warmup, repeats);

    util::Table table({"benchmark", "strategy", "median_ms", "qubits",
                       "depth", "SWAPs", "ESP"});
    table.set_title("bench_perf: " + std::to_string(results.size()) +
                    " entries, " + std::to_string(skipped.size()) +
                    " infeasible skipped -> " + out);
    for (const auto& result : results) {
        table.add_row(
            {result.name, result.strategy,
             util::Table::fmt(result.wall_ms_median, 3),
             util::Table::fmt(static_cast<long long>(result.qubits)),
             util::Table::fmt(static_cast<long long>(result.depth)),
             util::Table::fmt(static_cast<long long>(result.swaps)),
             util::Table::fmt(result.esp, 4)});
    }
    table.print(std::cout);
    return 0;
}
