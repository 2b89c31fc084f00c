/**
 * @file
 * The closed-loop workloads: one caller sends the next request only
 * after the previous one returned.
 *
 *  - reuse_wide: QS-CaQR max-reuse on wide BV/CC, mapped to
 *    heavy_hex:433 — the QS-CaQR candidate engine does nearly all the
 *    work, and its cost grows steeply with width.
 *  - paper_mix: the paper's evaluation mix on FakeMumbai — the seven
 *    corpus circuits under baseline/QS-CaQR/SR-CaQR plus seeded QAOA
 *    graphs under the commuting QS-CaQR and SR-CaQR; SR-CaQR and the
 *    commuting scheduler do most of the work.
 *  - shots: small reuse-compiled BV/CC/XOR simulated ideally through
 *    the service and with FakeMumbai noise afterwards; the simulator
 *    does most of the work.
 *
 * A timed run (`--trace 0`) measures end-to-end metrics through
 * `Service::compile`. A traced run (`--trace 1`) drives each request
 * through the layers' public functions in pipeline order under the
 * benchmark's own spans, then through `Service::compile`, and reports
 * per-layer numbers.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>

#include "bench.h"
#include "core/qs_caqr.h"
#include "core/sr_caqr.h"
#include "qasm/parser.h"
#include "service/service.h"
#include "sim/noise_model.h"
#include "sim/simulator.h"
#include "transpile/transpiler.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "pipeline.h"
#include "workloads.h"

namespace caqrbench {

namespace {

using caqr::CompileReport;
using caqr::CompileRequest;
using caqr::Service;
using caqr::Strategy;
using caqr::util::Rng;

/// Least number of set-ups timed per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 21;

/// Per-workload configuration.
struct ClosedSpec
{
    std::vector<Job> jobs;
    std::vector<std::string> backends;  ///< built during setup
    /// Latency limit behind slo_met_ratio and max_rps_under_slo.
    double slo_ms = 0.0;
    /// Noisy shots simulated after each compile (shots workload).
    std::size_t noisy_shots = 0;
};

Job
with_strategy(Job job, Strategy strategy, const std::string& backend)
{
    job.request.strategy = strategy;
    job.request.backend = backend;
    job.name += std::string("/") + caqr::strategy_name(strategy);
    job.request.name = job.name;
    return job;
}

ClosedSpec
make_spec(const Args& args)
{
    ClosedSpec spec;
    Rng rng(args.seed, 1);
    if (args.workload == "reuse_wide") {
        // Widths above 64 wait until QS-CaQR is fast enough to keep a
        // run short (see the benchmark doc).
        spec.backends = {"heavy_hex:433"};
        spec.slo_ms = 4000.0;
        // Two BV and two CC inputs per width smooth out how much one
        // seed's secrets move the per-width cost.
        for (int width : {24, 32, 40, 48, 56, 64}) {
            for (int copy = 0; copy < 2; ++copy) {
                spec.jobs.push_back(
                    with_strategy(bv_job(width, rng), Strategy::kQsCaqr, "heavy_hex:433"));
                spec.jobs.push_back(
                    with_strategy(cc_job(width, rng), Strategy::kQsCaqr, "heavy_hex:433"));
            }
        }
    } else if (args.workload == "paper_mix") {
        spec.backends = {"FakeMumbai"};
        spec.slo_ms = 200.0;
        for (const char* stem :
             {"4mod5", "bv_10", "cc_10", "multiply_13", "rd32", "system_9", "xor_5"}) {
            const Job job = file_job(args.root, stem);
            for (Strategy strategy : {Strategy::kBaseline, Strategy::kQsCaqr, Strategy::kSrCaqr}) {
                spec.jobs.push_back(with_strategy(job, strategy, "FakeMumbai"));
            }
        }
        for (int nodes = 12; nodes <= 16; ++nodes) {
            const Job job = qaoa_job(nodes, (3 * nodes * (nodes - 1)) / 20, rng);
            for (Strategy strategy : {Strategy::kQsCommuting, Strategy::kSrCaqr}) {
                spec.jobs.push_back(with_strategy(job, strategy, "FakeMumbai"));
            }
        }
    } else {  // shots
        spec.backends = {"FakeMumbai"};
        spec.slo_ms = 500.0;
        // Shot counts keep the simulator at >= 80% of request time.
        spec.noisy_shots = 8192;
        for (int width : {6, 8, 10, 12}) {
            for (Job job : {bv_job(width, rng), cc_job(width, rng), xor_job(width, rng)}) {
                job = with_strategy(std::move(job), Strategy::kQsCaqr, "FakeMumbai");
                job.request.simulate = true;
                job.request.sim.shots = 16384;
                spec.jobs.push_back(std::move(job));
            }
        }
    }
    return spec;
}

/// One seeded visiting order over the jobs per pass.
std::vector<std::size_t>
pass_order(std::size_t n, Rng& rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, rng);
    return order;
}

/// A built service plus the time it took: construction, backend
/// builds, input generation and one warm-up compile.
struct Setup
{
    std::unique_ptr<Service> service;
    ClosedSpec spec;
    double seconds = 0.0;
};

Setup
set_up(const Args& args)
{
    Setup setup;
    const auto start = Clock::now();
    setup.service = std::make_unique<Service>();
    setup.spec = make_spec(args);
    for (const auto& name : setup.spec.backends) setup.service->backend(name);
    // Warm-up on the narrowest job, so thread pools and allocators are
    // live before the timed loop.
    const auto narrowest = std::min_element(
        setup.spec.jobs.begin(), setup.spec.jobs.end(),
        [](const Job& a, const Job& b) { return a.width < b.width; });
    setup.service->compile(narrowest->request);
    setup.seconds = ms_since(start) / 1000.0;
    return setup;
}

caqr::sim::Counts
noisy_run(const CompileReport& report, const caqr::arch::Backend& backend, std::size_t shots)
{
    caqr::sim::SimOptions options;
    options.shots = shots;
    return caqr::sim::simulate(report.compiled, options,
                               caqr::sim::NoiseModel::from_backend(backend));
}

/// Everything a run learns from compiling each distinct job once
/// outside the timed region.
struct Reference
{
    std::vector<std::string> fingerprints;
    std::vector<caqr::sim::Counts> noisy;
    std::vector<Quality> quality;
    std::vector<caqr::circuit::Circuit> outputs;  ///< for the simulation probe
};

Reference
reference_pass(Setup& setup, Outcome& out)
{
    Reference ref;
    for (const Job& job : setup.spec.jobs) {
        const CompileReport report = setup.service->compile(job.request);
        const auto backend = setup.service->backend(job.request.backend);
        const std::string verdict = check_output(job, report, backend->get());
        if (!verdict.empty()) out.error("oracle " + verdict);
        // The simulation probe leaves out QAOA outputs: their cost
        // follows the seeded graph, not the simulator.
        if (!job.request.commuting.has_value()) ref.outputs.push_back(report.compiled);
        // The service's own ideal counts must reproduce the outcome too.
        if (job.request.simulate && !job.expected.empty() &&
            (report.counts.size() != 1 || report.counts.begin()->first != job.expected)) {
            out.error("oracle " + job.name + ": service counts miss " + job.expected);
        }
        ref.fingerprints.push_back(caqr::report_fingerprint(report));
        ref.quality.push_back(quality_of(report));
        ref.noisy.push_back(setup.spec.noisy_shots > 0
                                ? noisy_run(report, **backend, setup.spec.noisy_shots)
                                : caqr::sim::Counts{});
    }
    return ref;
}

std::vector<double>
setup_times(const Args& args, Setup& keep)
{
    std::vector<double> times;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        keep = set_up(args);
        times.push_back(keep.seconds);
    }
    return times;
}

void
print_header(const ClosedSpec& spec, Outcome& out)
{
    const int hw = caqr::util::ThreadPool::resolve_threads(0);
    out.details.push_back("distinct_inputs=" + std::to_string(spec.jobs.size()));
    out.details.push_back(
        "pools service_threads=" + std::to_string(hw) + " qs_caqr_threads=" + std::to_string(hw) +
        " transpile_threads=" + std::to_string(hw) + " sr_caqr_threads=" + std::to_string(hw) +
        " sim_threads=1");
}

// ---------------------------------------------------------------------
// Timed run
// ---------------------------------------------------------------------

Outcome
timed_run(const Args& args)
{
    Outcome out;
    Setup setup = set_up(args);
    std::vector<double> setups = {setup.seconds};
    print_header(setup.spec, out);
    const auto reference_start = Clock::now();
    const Reference ref = reference_pass(setup, out);
    out.details.push_back("reference_pass_s=" + num(ms_since(reference_start) / 1000.0));
    const auto& jobs = setup.spec.jobs;
    const bool requests_simulate = setup.spec.noisy_shots > 0;
    SimProbe probe(requests_simulate ? std::vector<caqr::circuit::Circuit>{} : ref.outputs);

    // Rates come from the median pass, so a burst of contention on the
    // host that slows one pass does not move them. Each pass is followed,
    // outside its timing, by one fresh set-up and one simulation probe
    // round, so those sample the same host conditions as the requests.
    Rng order_rng(args.seed, 2);
    std::vector<double> latency, pass_ms;
    std::vector<std::vector<double>> per_job(jobs.size());
    std::size_t shots_per_pass = 0;
    const auto start = Clock::now();
    while (ms_since(start) < args.seconds * 1000.0) {
        double busy_ms = 0.0;
        shots_per_pass = 0;
        for (std::size_t index : pass_order(jobs.size(), order_rng)) {
            const Job& job = jobs[index];
            const auto t0 = Clock::now();
            const CompileReport report = setup.service->compile(job.request);
            caqr::sim::Counts noisy;
            if (setup.spec.noisy_shots > 0 && report.ok()) {
                noisy = noisy_run(report, **setup.service->backend(job.request.backend),
                                  setup.spec.noisy_shots);
            }
            const double ms = ms_since(t0);
            latency.push_back(ms);
            per_job[index].push_back(ms);
            busy_ms += ms;
            ++out.attempted;
            if (!report.ok()) {
                ++out.failed;
                out.error("request " + job.name + ": " + report.status.to_string());
            } else if (caqr::report_fingerprint(report) != ref.fingerprints[index] ||
                       noisy != ref.noisy[index]) {
                ++out.failed;
                out.error("nondeterministic output for " + job.name);
            } else if (job.request.simulate) {
                shots_per_pass += job.request.sim.shots + setup.spec.noisy_shots;
            }
        }
        pass_ms.push_back(busy_ms);
        setups.push_back(set_up(args).seconds);
        if (!requests_simulate) probe.round();
    }
    while (setups.size() < kSetupRepeats) setups.push_back(set_up(args).seconds);
    while (!requests_simulate && probe.rounds() < SimProbe::kMinRounds) probe.round();

    const double n = static_cast<double>(latency.size());
    const long met = std::count_if(latency.begin(), latency.end(),
                                   [&](double ms) { return ms <= setup.spec.slo_ms; }) -
                     out.failed;
    const double pass_s = median(pass_ms) / 1000.0;
    const double rate = static_cast<double>(jobs.size()) / pass_s;
    out.add("setup_s", median(setups), "s");
    out.add("compiles_per_s", rate, "1/s");
    // Latency percentiles over the distinct inputs, each at its median
    // latency over the passes. Pooled over every sample, a percentile
    // falls between the latencies of two different inputs, where a few
    // slow samples of the faster one move it across the gap, and p99 is
    // one of the run's few slowest samples, which one host stall sets.
    // One median per input keeps each percentile on a single input.
    std::vector<double> input_medians;
    for (const auto& samples : per_job) input_medians.push_back(median(samples));
    out.add("latency_p50_ms", percentile(input_medians, 50), "ms");
    out.add("latency_p90_ms", percentile(input_medians, 90), "ms");
    out.add("latency_p99_ms", percentile(input_medians, 99), "ms");
    out.add("shots_per_s",
            requests_simulate ? static_cast<double>(shots_per_pass) / pass_s : probe.shots_per_s(),
            "1/s");
    out.add("slo_met_ratio", static_cast<double>(met) / n, "ratio");
    out.add("max_rps_under_slo", rate * static_cast<double>(met) / n, "1/s");
    out.add("ok_ratio", (n - static_cast<double>(out.failed)) / n, "ratio");
    add_quality_metrics(ref.quality, out);
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");

    out.details.push_back("passes=" + std::to_string(pass_ms.size()) +
                          " samples=" + std::to_string(latency.size()) +
                          " inputs_beyond_p90=" + std::to_string(samples_beyond(input_medians, 90)) +
                          " inputs_beyond_p99=" + std::to_string(samples_beyond(input_medians, 99)));
    out.details.push_back("pooled_latency_ms p50=" + num(percentile(latency, 50)) +
                          " p90=" + num(percentile(latency, 90)) +
                          " p99=" + num(percentile(latency, 99)) +
                          " beyond_p90=" + std::to_string(samples_beyond(latency, 90)) +
                          " beyond_p99=" + std::to_string(samples_beyond(latency, 99)));
    out.details.push_back("slo_ms=" + num(setup.spec.slo_ms));
    out.details.push_back("error_ratio=" + num(static_cast<double>(out.failed) / n));
    out.details.push_back("setups=" + std::to_string(setups.size()));
    out.details.push_back(requests_simulate
                              ? "shots_per_s_source=requests"
                              : "shots_per_s_source=ideal simulation of each distinct output, " +
                                    std::to_string(probe.rounds()) + " rounds");
    return out;
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Which service stage a direct-call span stands for.
const std::map<std::string, std::string>&
stage_of_span()
{
    static const std::map<std::string, std::string> map = {
        {"qasm.parse", "load"},       {"arch.backend", "backend"},
        {"core.qs_caqr", "qs_caqr"},  {"core.qs_commuting", "qs_commuting"},
        {"core.sr_caqr", "sr_caqr"},  {"transpile.map", "map"},
        {"arch.esp", "esp"},          {"sim.ideal", "simulate"}};
    return map;
}

Outcome
traced_run(const Args& args)
{
    Outcome out;
    Setup setup;
    const double setup_s = median(setup_times(args, setup));
    print_header(setup.spec, out);
    out.details.push_back("setup_s=" + num(setup_s));
    const Reference ref = reference_pass(setup, out);
    const auto& jobs = setup.spec.jobs;
    Service& service = *setup.service;

    // The program's own pass counters exist only while its tracing is
    // on; one probe pass reads them, outside the measured phases.
    caqr::util::trace::reset();
    caqr::util::trace::set_enabled(true);
    for (const Job& job : jobs) service.compile(job.request);
    caqr::util::trace::set_enabled(false);
    const auto counters = caqr::util::trace::collect().counters;
    caqr::util::trace::reset();
    const auto snapshot = service.metrics_snapshot();

    // Each request runs the direct-call pipeline, then Service::compile.
    // The same loop runs twice: first with span recording off (the
    // base of the tracing overhead), then on.
    Tracer tracer;
    DirectPipeline direct(service, tracer, setup.spec.noisy_shots);
    Rng order_rng(args.seed, 2);
    std::vector<std::vector<double>> plain(jobs.size()), traced(jobs.size());
    std::map<std::uint64_t, std::size_t> job_of;
    std::vector<CompileReport> service_reports;
    std::vector<double> service_walls;
    std::uint64_t next_id = 1;
    // A phase runs at least one whole pass, then stops at its deadline.
    auto phase = [&](double seconds, std::vector<std::vector<double>>& request_ms) {
        const auto phase_start = Clock::now();
        auto over = [&] { return ms_since(phase_start) >= seconds * 1000.0; };
        for (bool first = true; first || !over(); first = false) {
            for (std::size_t index : pass_order(jobs.size(), order_rng)) {
                if (!first && over()) break;
                const Job& job = jobs[index];
                const std::uint64_t id = next_id++;
                job_of[id] = index;
                const auto start = Clock::now();
                DirectResult direct_result;
                {
                    Tracer::Scope root(tracer, "request", id);
                    direct_result = direct.run(job, id);
                }
                CompileReport report;
                const auto t0 = Clock::now();
                {
                    Tracer::Scope root(tracer, "service.compile", id);
                    report = service.compile(job.request);
                }
                const double wall = ms_since(t0);
                request_ms[index].push_back(ms_since(start));
                ++out.attempted;
                if (!direct_result.ok || !report.ok()) {
                    ++out.failed;
                    out.error("request " + (direct_result.ok
                                                ? job.name + ": " + report.status.to_string()
                                                : direct_result.error));
                } else if (!(direct_result.quality == quality_of(report)) ||
                           !(direct_result.quality == ref.quality[index])) {
                    ++out.failed;
                    out.error("direct-call quality differs from Service::compile for " + job.name);
                }
                if (tracer.enabled()) {
                    service_walls.push_back(wall);
                    service_reports.push_back(std::move(report));
                }
            }
        }
    };
    tracer.set_enabled(false);
    phase(args.seconds * 0.3, plain);
    direct.counts = {};
    tracer.set_enabled(true);
    phase(args.seconds * 0.7, traced);

    // Per-layer self time, call counts, and request totals.
    const auto& spans = tracer.spans();
    const auto self = tracer.self_ms();
    std::map<std::string, double> layer_ms;
    std::map<std::string, long> layer_calls;
    double request_ms = 0.0, covered_ms = 0.0;
    std::map<std::size_t, std::vector<double>> qs_ms_by_job;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& span = spans[i];
        if (span.name == "request") {
            request_ms += span.ms();
        } else if (span.parent >= 0) {
            layer_ms[span.name] += self[i];
            ++layer_calls[span.name];
            covered_ms += span.ms();
            if (span.name == "core.qs_caqr") qs_ms_by_job[job_of[span.request]].push_back(span.ms());
        }
    }
    auto mean_ms = [&](const std::string& name) {
        return layer_calls[name] > 0 ? layer_ms[name] / static_cast<double>(layer_calls[name]) : 0.0;
    };
    std::vector<std::string> absent;
    auto per_call = [&](const std::string& metric, const std::string& span) {
        if (layer_calls[span] == 0) absent.push_back(metric + " (workload never calls " + span + ")");
        out.add(metric, mean_ms(span), "ms");
    };

    // Stage agreement and service overhead from the service's own
    // stage timings of the same requests.
    double stage_sum = 0.0, direct_sum = 0.0, overhead = 0.0;
    for (std::size_t r = 0; r < service_reports.size(); ++r) {
        double stages = 0.0;
        for (const auto& stage : service_reports[r].stages) stages += stage.ms;
        stage_sum += stages;
        overhead += service_walls[r] - stages;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0 && stage_of_span().count(spans[i].name) > 0) {
            direct_sum += spans[i].ms();
        }
    }

    std::vector<double> ratios;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!plain[j].empty() && !traced[j].empty()) {
            ratios.push_back(std::log(median(traced[j]) / median(plain[j])));
        }
    }
    const double overhead_ratio =
        std::exp(std::accumulate(ratios.begin(), ratios.end(), 0.0) /
                 static_cast<double>(std::max<std::size_t>(ratios.size(), 1)));

    per_call("qasm.parse_ms", "qasm.parse");
    out.add("arch.backend_build_ms", backend_build_ms(), "ms");
    per_call("arch.esp_ms", "arch.esp");
    per_call("core.qs_caqr_ms", "core.qs_caqr");
    if (args.workload == "reuse_wide") {
        std::vector<std::pair<double, double>> points;
        for (const auto& [index, samples] : qs_ms_by_job) {
            points.emplace_back(jobs[index].width, median(samples));
        }
        out.add("core.qs_caqr_scaling_exp", loglog_slope(points), "exponent");
    } else {
        absent.push_back("core.qs_caqr_scaling_exp (fitted on reuse_wide's width ladder only)");
        out.add("core.qs_caqr_scaling_exp", 0.0, "exponent");
    }
    // Counts over the distinct inputs, from the reference outputs.
    double qs_reuses = 0.0, transpile_swaps = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Strategy strategy = jobs[j].request.strategy;
        if (strategy == Strategy::kQsCaqr) qs_reuses += ref.quality[j].reuses;
        if (strategy != Strategy::kSrCaqr) transpile_swaps += ref.quality[j].swaps;
    }
    out.add("core.qs_caqr_reuses", qs_reuses, "count");
    const auto memo = snapshot.histograms.find("qs_caqr.memo_hit_rate");
    if (memo == snapshot.histograms.end() || memo->second.count() == 0) {
        absent.push_back("core.qs_caqr_memo_hit_ratio (no qs_caqr.memo_hit_rate in metrics_snapshot)");
    }
    out.add("core.qs_caqr_memo_hit_ratio",
            memo == snapshot.histograms.end() ? 0.0 : memo->second.mean(), "ratio");
    per_call("core.qs_commuting_ms", "core.qs_commuting");
    per_call("core.sr_caqr_ms", "core.sr_caqr");
    per_call("transpile.map_ms", "transpile.map");
    out.add("transpile.swaps", transpile_swaps, "count");
    const auto trials = counters.find("transpile.layout_trials");
    const auto pruned = counters.find("transpile.trials_pruned");
    if (trials == counters.end() || trials->second == 0.0) {
        absent.push_back("transpile.trials_pruned_ratio (no transpile.layout_trials counter)");
    }
    out.add("transpile.trials_pruned_ratio",
            trials == counters.end() || trials->second == 0.0 || pruned == counters.end()
                ? 0.0
                : pruned->second / trials->second,
            "ratio");
    const double sim_ms = layer_ms["sim.ideal"] + layer_ms["sim.noisy"];
    const long sim_calls = layer_calls["sim.ideal"] + layer_calls["sim.noisy"];
    if (sim_calls == 0) absent.push_back("sim.* (workload never simulates)");
    out.add("sim.simulate_ms", sim_calls > 0 ? sim_ms / static_cast<double>(sim_calls) : 0.0, "ms");
    out.add("sim.ideal_shots_per_s",
            layer_ms["sim.ideal"] > 0 ? direct.counts.ideal_shots / (layer_ms["sim.ideal"] / 1000.0) : 0.0,
            "1/s");
    out.add("sim.noisy_shots_per_s",
            layer_ms["sim.noisy"] > 0 ? direct.counts.noisy_shots / (layer_ms["sim.noisy"] / 1000.0)
                                      : 0.0,
            "1/s");
    out.add("service.overhead_ms",
            overhead / static_cast<double>(std::max<std::size_t>(service_reports.size(), 1)), "ms");
    for (const char* name : {"service.cache_lookup_ms", "service.cache_hit_ratio",
                             "service.cache_evictions", "service.bind_ms", "server.wait_ms",
                             "server.busy_rejects"}) {
        absent.push_back(std::string(name) + " (closed loops run without cache or server; serve_mix measures it)");
        const std::string metric = name;
        out.add(metric, 0.0,
                metric.ends_with("_ms") ? "ms" : metric.ends_with("_ratio") ? "ratio" : "count");
    }
    out.add("trace.span_coverage", request_ms > 0 ? covered_ms / request_ms : 0.0, "ratio");
    out.add("trace.stage_agreement", stage_sum > 0 ? direct_sum / stage_sum : 0.0, "ratio");
    out.add("trace.overhead_ratio", overhead_ratio, "ratio");

    // Stage shares of request time along the direct-call path.
    std::string shares = "stage_shares";
    for (const auto& [name, ms] : layer_ms) {
        shares += " " + name + "=" + num(request_ms > 0 ? ms / request_ms : 0.0);
    }
    out.details.push_back(shares);
    out.details.push_back("traced_requests=" + std::to_string(service_reports.size()));
    for (const auto& reason : absent) out.details.push_back("absent " + reason);

    const std::string path = args.out_dir + "/" + args.workload + "_seed" +
                             std::to_string(args.seed) + ".trace.json";
    std::ofstream file(path);
    tracer.write_chrome_trace(file);
    out.details.push_back("chrome_trace=" + path);
    return out;
}

}  // namespace

Outcome
run_closed_loop(const Args& args)
{
    return args.trace ? traced_run(args) : timed_run(args);
}

}  // namespace caqrbench
