#include "service/service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "circuit/dag.h"
#include "circuit/timing.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "service/cache.h"
#include "util/trace.h"

namespace caqr {

namespace {

namespace fs = std::filesystem;

/// Lowercase with separators ('-', '_', ' ', '.') removed — the
/// normalization behind the backend-name aliases.
std::string
normalize_key(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '-' || c == '_' || c == ' ' || c == '.') continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

/// Parses a backend registry key into (canonical cache key, factory
/// argument). heavy-hex sizes are capped to keep a typo'd size from
/// allocating a gigantic APSP matrix.
struct BackendKey
{
    std::string canonical;
    int heavy_hex_qubits = 0;  ///< 0 = FakeMumbai
};

util::StatusOr<BackendKey>
parse_backend_key(const std::string& name)
{
    constexpr int kMaxHeavyHexQubits = 4096;
    const std::string key = normalize_key(name);
    if (key == "fakemumbai" || key == "mumbai") {
        return BackendKey{"FakeMumbai", 0};
    }
    if (key.rfind("heavyhex", 0) == 0) {
        std::string digits = key.substr(8);
        if (!digits.empty() && digits.front() == ':') digits.erase(0, 1);
        if (!digits.empty() &&
            std::all_of(digits.begin(), digits.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c));
            })) {
            const long qubits = std::strtol(digits.c_str(), nullptr, 10);
            if (qubits > 0 && qubits <= kMaxHeavyHexQubits) {
                return BackendKey{
                    "heavy_hex:" + std::to_string(qubits),
                    static_cast<int>(qubits)};
            }
        }
        return util::Status::invalid_argument(
            "heavy-hex backend needs a qubit count in [1, " +
            std::to_string(kMaxHeavyHexQubits) + "]: '" + name + "'");
    }
    return util::Status::not_found(
        "unknown backend '" + name +
        "' (known: FakeMumbai, heavy_hex:<min_qubits>)");
}

/// Escapes a free-text field for the one-line CSV format.
std::string
csv_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == ',') {
            out.push_back(';');
        } else if (c == '\n' || c == '\r') {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
format_double(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/// Tenant tags become metric-name suffixes; restrict them to a safe
/// alphabet and a sane length so one client cannot pollute the
/// registry namespace.
std::string
sanitize_tenant(const std::string& tenant)
{
    std::string out;
    out.reserve(std::min<std::size_t>(tenant.size(), 32));
    for (char c : tenant) {
        if (out.size() >= 32) break;
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == '-';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/// slots[ref] = indices of the instructions in @p circuit whose angle
/// mirrors parameter `ref` (a rotation can lower into several sites).
std::vector<std::vector<std::size_t>>
slot_map(const circuit::Circuit& circuit)
{
    std::vector<std::vector<std::size_t>> slots(
        static_cast<std::size_t>(circuit.num_params()));
    const auto& instrs = circuit.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const auto ref = instrs[i].param_ref;
        if (ref >= 0) slots[static_cast<std::size_t>(ref)].push_back(i);
    }
    return slots;
}

}  // namespace

/// Side-channel from `compile_uncached` to `compile_template`: the
/// reuse-level circuit, which non-SR templates freeze as their
/// simulation target (the routed circuit simulates physical wires;
/// counts are defined over logical ones).
struct TemplateCapture
{
    circuit::Circuit reuse_level;
    bool has_reuse_level = false;
};

const char*
strategy_name(Strategy strategy)
{
    switch (strategy) {
      case Strategy::kBaseline: return "baseline";
      case Strategy::kQsCaqr: return "qs_caqr";
      case Strategy::kQsCommuting: return "qs_commuting";
      case Strategy::kSrCaqr: return "sr_caqr";
    }
    return "unknown";
}

util::StatusOr<Strategy>
parse_strategy(const std::string& name)
{
    const std::string key = normalize_key(name);
    if (key == "baseline") return Strategy::kBaseline;
    if (key == "qscaqr" || key == "qs") return Strategy::kQsCaqr;
    if (key == "qscommuting") return Strategy::kQsCommuting;
    if (key == "srcaqr" || key == "sr") return Strategy::kSrCaqr;
    return util::Status::invalid_argument(
        "unknown strategy '" + name +
        "' (known: baseline, qs_caqr, qs_commuting, sr_caqr)");
}

double
CompileReport::total_ms() const
{
    double total = 0.0;
    for (const auto& stage : stages) total += stage.ms;
    return total;
}

std::string
report_fingerprint(const CompileReport& report)
{
    std::ostringstream os;
    os << "status=" << report.status.to_string() << '\n'
       << "name=" << report.name << '\n'
       << "backend=" << report.backend << '\n'
       << "strategy=" << report.strategy << '\n'
       << "logical_qubits=" << report.logical_qubits << '\n'
       << "qubits=" << report.qubits << '\n'
       << "physical_qubits=" << report.physical_qubits << '\n'
       << "depth=" << report.depth << '\n'
       << "duration_dt=" << format_double(report.duration_dt) << '\n'
       << "swaps=" << report.swaps << '\n'
       << "reuses=" << report.reuses << '\n'
       << "esp=" << format_double(report.esp) << '\n';
    for (const auto& [key, count] : report.counts) {
        os << "count[" << key << "]=" << count << '\n';
    }
    if (report.compiled.size() > 0 || report.compiled.num_qubits() > 0) {
        os << qasm::to_qasm(report.compiled);
    }
    return os.str();
}

std::string
batch_csv_header()
{
    return "name,strategy,backend,status,logical_qubits,qubits,"
           "physical_qubits,depth,duration_dt,swaps,reuses,esp,total_ms";
}

std::string
batch_csv_row(const CompileReport& report)
{
    std::ostringstream os;
    os << csv_escape(report.name) << ',' << report.strategy << ','
       << csv_escape(report.backend) << ','
       << csv_escape(report.status.to_string()) << ','
       << report.logical_qubits << ',' << report.qubits << ','
       << report.physical_qubits << ',' << report.depth << ','
       << report.duration_dt << ',' << report.swaps << ','
       << report.reuses << ',' << report.esp << ',' << report.total_ms();
    return os.str();
}

util::StatusOr<std::string>
canonical_backend_name(const std::string& name)
{
    auto key = parse_backend_key(name);
    if (!key.ok()) return key.status();
    return key->canonical;
}

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      pool_(util::ThreadPool::resolve_threads(options_.num_threads) - 1)
{
    if (options_.cache_capacity > 0) {
        cache_ = std::make_unique<CompileCache>(options_.cache_capacity,
                                                &metrics_);
    }
    if (options_.template_cache_capacity > 0) {
        template_cache_ = std::make_unique<TemplateCache>(
            options_.template_cache_capacity, &metrics_, "service.template");
    }
}

Service::~Service() = default;

CacheStats
Service::compile_cache_stats() const
{
    return cache_ ? cache_->stats() : CacheStats{};
}

CacheStats
Service::template_cache_stats() const
{
    return template_cache_ ? template_cache_->stats() : CacheStats{};
}

util::StatusOr<std::shared_ptr<const arch::Backend>>
Service::backend(const std::string& name)
{
    auto key = parse_backend_key(name);
    if (!key.ok()) return key.status();

    // Build-under-the-mutex keeps the compute-once guarantee trivially:
    // concurrent first lookups of one backend serialize, every later
    // lookup shares the immutable instance.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = backends_.find(key->canonical);
    if (it != backends_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        util::trace::counter_add("service.cache_hits", 1);
        return it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    util::trace::counter_add("service.cache_misses", 1);
    util::trace::Span span("service.backend_build");
    auto built = std::make_shared<const arch::Backend>(
        key->heavy_hex_qubits == 0
            ? arch::Backend::fake_mumbai()
            : arch::Backend::scaled_heavy_hex(key->heavy_hex_qubits));
    backends_.emplace(key->canonical, built);
    return built;
}

CompileReport
Service::compile(const CompileRequest& request)
{
    // Per-request identity: every span recorded while this compile
    // runs — including every fan-out task on pool workers, which
    // util::FanOut rebinds to this scope — is tagged with this id,
    // and (when slow capture is configured) mirrored into a private
    // capture so a slow or failed request can be flushed as a
    // standalone trace artifact.
    const std::uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    const std::string tenant = sanitize_tenant(request.tenant);
    util::trace::RequestContext ctx;
    ctx.id = request_id;
    ctx.tenant = tenant;
    ctx.deadline_ms = options_.slow_request_ms;
    std::unique_ptr<util::trace::RequestCapture> capture;
    if (options_.slow_request_ms > 0.0) {
        capture =
            std::make_unique<util::trace::RequestCapture>(request_id);
    }
    util::trace::RequestScope request_scope(&ctx, capture.get());

    CompileReport report = [&]() -> CompileReport {
        util::trace::Span span("service.compile");

        // Content-addressed fast path: when a cache is configured and
        // the request's input is addressable, a hit replays the stored
        // report for the cost of one lookup. Failures are never
        // cached, and a request whose key cannot be computed (e.g.
        // unreadable file) falls through to the pipeline, which
        // reports the same failure.
        if (cache_ != nullptr) {
            const auto key = request_cache_key(request);
            if (key.ok()) {
                const auto start = std::chrono::steady_clock::now();
                auto hit = cache_->get(*key);
                const double lookup_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (hit.has_value()) {
                    CompileReport cached = std::move(*hit);
                    cached.from_cache = true;
                    cached.stages = {{"cache", lookup_ms}};
                    if (!request.name.empty()) cached.name = request.name;
                    if (!tenant.empty()) {
                        metrics_.add(
                            "service.cache.hit.tenant." + tenant, 1.0);
                    }
                    record_request_metrics(request, cached);
                    return cached;
                }
                if (!tenant.empty()) {
                    metrics_.add("service.cache.miss.tenant." + tenant,
                                 1.0);
                }
                CompileReport fresh = compile_uncached(request);
                record_request_metrics(request, fresh);
                if (fresh.ok()) cache_->put(*key, fresh);
                return fresh;
            }
        }

        CompileReport fresh = compile_uncached(request);
        record_request_metrics(request, fresh);
        return fresh;
    }();

    report.request_id = request_id;
    if (capture != nullptr) maybe_write_slow_trace(report, *capture);
    return report;
}

void
Service::maybe_write_slow_trace(const CompileReport& report,
                                const util::trace::RequestCapture& capture)
{
    const bool slow = report.total_ms() > options_.slow_request_ms;
    if (!slow && report.ok()) return;
    // Lifetime rate limit, claimed with a CAS so concurrent offenders
    // never write more than slow_trace_max artifacts between them.
    std::size_t written =
        slow_traces_written_.load(std::memory_order_relaxed);
    while (true) {
        if (written >= options_.slow_trace_max) {
            metrics_.add("service.slow_captures_suppressed", 1.0);
            return;
        }
        if (slow_traces_written_.compare_exchange_weak(
                written, written + 1, std::memory_order_relaxed)) {
            break;
        }
    }
    fs::path path = options_.slow_trace_dir.empty()
                        ? fs::path(".")
                        : fs::path(options_.slow_trace_dir);
    path /= "slow_req_" + std::to_string(capture.request_id()) +
            ".trace.json";
    std::ofstream out(path);
    if (!out) {
        metrics_.add("service.slow_capture_errors", 1.0);
        return;
    }
    capture.write_chrome_trace(out);
    metrics_.add("service.slow_captures", 1.0);
}

CompileReport
Service::compile_uncached(const CompileRequest& request,
                          TemplateCapture* capture)
{
    CompileReport report;
    report.name = request.name;
    report.strategy = strategy_name(request.strategy);

    // Shared stage path: every pass invocation goes through run_stage,
    // which skips once a prior stage failed, records wall-clock per
    // stage, and funnels failures into report.status.
    auto run_stage = [&report](const char* name, auto&& body) {
        if (!report.status.ok()) return false;
        util::trace::Span stage_span(std::string("service.stage.") + name);
        const auto start = std::chrono::steady_clock::now();
        util::Status status = body();
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        report.stages.push_back({name, ms});
        if (!status.ok()) report.status = std::move(status);
        return report.status.ok();
    };

    circuit::Circuit input;
    run_stage("load", [&]() -> util::Status {
        const int provided = (request.circuit.has_value() ? 1 : 0) +
                             (request.qasm.empty() ? 0 : 1) +
                             (request.qasm_file.empty() ? 0 : 1) +
                             (request.commuting.has_value() ? 1 : 0);
        if (provided != 1) {
            return util::Status::invalid_argument(
                "provide exactly one input (circuit, qasm, qasm_file, "
                "or commuting), got " +
                std::to_string(provided));
        }
        if (request.commuting.has_value()) {
            if (request.strategy != Strategy::kQsCommuting &&
                request.strategy != Strategy::kSrCaqr) {
                return util::Status::invalid_argument(
                    "a commuting workload needs strategy qs_commuting "
                    "or sr_caqr");
            }
            report.logical_qubits =
                request.commuting->interaction.num_nodes();
            if (report.name.empty()) report.name = "commuting";
            return {};
        }
        if (request.strategy == Strategy::kQsCommuting) {
            return util::Status::invalid_argument(
                "strategy qs_commuting needs a commuting workload "
                "input");
        }
        if (request.circuit.has_value()) {
            input = *request.circuit;
        } else if (!request.qasm.empty()) {
            auto parsed = qasm::parse_circuit(request.qasm);
            if (!parsed.ok()) return parsed.status();
            input = std::move(parsed).value();
        } else {
            auto parsed = qasm::parse_circuit_file(request.qasm_file);
            if (!parsed.ok()) return parsed.status();
            input = std::move(parsed).value();
            if (report.name.empty()) {
                report.name = fs::path(request.qasm_file).stem().string();
            }
        }
        if (report.name.empty()) report.name = "circuit";
        report.logical_qubits = input.active_qubit_count();
        return {};
    });

    std::shared_ptr<const arch::Backend> backend;
    const bool needs_backend =
        request.map_to_backend || request.strategy == Strategy::kSrCaqr;
    if (needs_backend) {
        run_stage("backend", [&]() -> util::Status {
            auto resolved = this->backend(request.backend);
            if (!resolved.ok()) return resolved.status();
            backend = std::move(resolved).value();
            report.backend = backend->name();
            return {};
        });
    }

    // Every parallel section of the request (raced routing/variant
    // trials, commuting candidate schedules, ESP version selection)
    // runs on the service pool, so a one-thread service (no workers)
    // compiles serially; util::FanOut carries this thread's request
    // binding onto the workers. The pool is never part of a cache key
    // and results are bit-identical with or without it, so this only
    // changes wall time.
    core::QsCaqrOptions qs_options = request.qs;
    core::QsCommutingOptions qs_commuting_options = request.qs_commuting;
    core::SrCaqrOptions sr_options = request.sr;
    transpile::TranspileOptions transpile_options = request.transpile;
    qs_options.pool = &pool_;
    qs_commuting_options.pool = &pool_;
    sr_options.pool = &pool_;
    transpile_options.pool = &pool_;

    // Reuse pass (strategy dispatch). `reuse_level` is the logical
    // circuit the mapping and simulation stages consume; kSrCaqr maps
    // internally and fills the report directly.
    circuit::Circuit reuse_level;
    bool mapped = false;
    switch (request.strategy) {
      case Strategy::kBaseline:
        run_stage("analyze", [&]() -> util::Status {
            reuse_level = std::move(input);
            report.qubits = report.logical_qubits;
            if (!request.map_to_backend) {
                circuit::CircuitDag dag(reuse_level);
                report.depth = dag.depth();
                circuit::LogicalDurations model;
                report.duration_dt = dag.duration(model);
            }
            return {};
        });
        break;
      case Strategy::kQsCaqr:
        run_stage("qs_caqr", [&]() -> util::Status {
            if (request.select_by_esp && !request.map_to_backend) {
                return util::Status::invalid_argument(
                    "select_by_esp needs map_to_backend");
            }
            auto result = core::qs_caqr_or(input, qs_options);
            if (!result.ok()) return result.status();
            std::size_t index = result->versions.size() - 1;
            if (request.select_by_esp) {
                // Versions are ranked under the same mapping options as
                // the final map stage.
                const auto selection = core::select_best_by_esp(
                    *result, *backend, transpile_options);
                index = selection.version_index;
            }
            const auto& version = result->versions[index];
            reuse_level = version.circuit;
            report.qubits = version.qubits;
            report.reuses = static_cast<int>(version.applied.size());
            report.depth = version.depth;
            report.duration_dt = version.duration_dt;
            return {};
        });
        break;
      case Strategy::kQsCommuting:
        run_stage("qs_commuting", [&]() -> util::Status {
            auto result = core::qs_caqr_commuting_or(
                *request.commuting, qs_commuting_options);
            if (!result.ok()) return result.status();
            const auto& version = result->versions.back();
            reuse_level = version.schedule.circuit;
            report.qubits = version.qubits;
            report.reuses = static_cast<int>(version.pairs.size());
            report.depth = version.schedule.depth;
            report.duration_dt = version.schedule.duration_dt;
            return {};
        });
        break;
      case Strategy::kSrCaqr:
        run_stage("sr_caqr", [&]() -> util::Status {
            auto result =
                request.commuting.has_value()
                    ? core::sr_caqr_commuting_or(*request.commuting,
                                                 *backend, sr_options,
                                                 qs_commuting_options)
                    : core::sr_caqr_or(input, *backend, sr_options);
            if (!result.ok()) return result.status();
            report.compiled = std::move(result->circuit);
            report.qubits = result->physical_qubits_used;
            report.physical_qubits = result->physical_qubits_used;
            report.swaps = result->swaps_added;
            report.reuses = result->reuses;
            report.depth = result->depth;
            report.duration_dt = result->duration_dt;
            mapped = true;
            return {};
        });
        break;
    }

    if (request.strategy != Strategy::kSrCaqr) {
        if (request.map_to_backend) {
            run_stage("map", [&]() -> util::Status {
                auto result = transpile::transpile_or(
                    reuse_level, *backend, transpile_options);
                if (!result.ok()) return result.status();
                report.compiled = std::move(result->circuit);
                report.swaps = result->swaps_added;
                report.depth = result->depth;
                report.duration_dt = result->duration_dt;
                report.physical_qubits =
                    report.compiled.active_qubit_count();
                mapped = true;
                return {};
            });
        } else if (report.status.ok()) {
            report.compiled = reuse_level;
        }
    }

    if (mapped && request.compute_esp) {
        run_stage("esp", [&]() -> util::Status {
            report.esp =
                arch::estimated_success_probability(report.compiled,
                                                    *backend);
            return {};
        });
    }

    if (request.simulate) {
        run_stage("simulate", [&]() -> util::Status {
            const circuit::Circuit& target =
                request.strategy == Strategy::kSrCaqr ? report.compiled
                                                      : reuse_level;
            report.counts = sim::simulate(target, request.sim);
            return {};
        });
    }

    if (capture != nullptr && report.status.ok() &&
        request.strategy != Strategy::kSrCaqr) {
        capture->reuse_level = std::move(reuse_level);
        capture->has_reuse_level = true;
    }

    return report;
}

util::StatusOr<TemplateHandle>
Service::compile_template(const CompileRequest& request)
{
    util::trace::Span span("service.compile_template");
    if (template_cache_ == nullptr) {
        return util::Status::invalid_argument(
            "templates are disabled (template_cache_capacity = 0)");
    }

    CompileRequest shaped = request;
    if (shaped.commuting.has_value()) {
        // Commuting angles become named gamma<l>/beta<l> parameters so
        // the frozen schedule stays rebindable.
        shaped.commuting->symbolic = true;
    }
    const auto key = template_cache_key(shaped);
    if (!key.ok()) return key.status();

    // Admission lock: one skeleton compiles at most once concurrently;
    // losers of the race resolve to the winner's resident template.
    // Binds only take template_mutex_, so they never wait on this.
    std::lock_guard<std::mutex> admission(template_admission_mutex_);
    if (auto resident = template_cache_->get(*key)) {
        return TemplateHandle{(*resident)->id};
    }

    CompileRequest once = shaped;
    once.simulate = false;  // deferred to bind time
    TemplateCapture capture;
    CompileReport base = compile_uncached(once, &capture);
    if (!base.ok()) return base.status;

    auto built = std::make_shared<CompiledTemplate>();
    built->id = next_template_id_.fetch_add(1, std::memory_order_relaxed);
    built->skeleton_key = *key;
    built->param_names.reserve(base.compiled.params().size());
    for (const auto& param : base.compiled.params()) {
        built->param_names.push_back(param.name);
        built->default_values.push_back(param.value);
    }
    built->slots = slot_map(base.compiled);
    built->simulate = request.simulate;
    built->sim_separate = request.strategy != Strategy::kSrCaqr &&
                          capture.has_reuse_level;
    built->sim_options = request.sim;
    if (built->simulate && built->sim_separate) {
        built->sim_circuit = std::move(capture.reuse_level);
        built->sim_slots = slot_map(built->sim_circuit);
    }
    built->base = std::move(base);

    std::shared_ptr<const CompiledTemplate> frozen = std::move(built);
    {
        std::lock_guard<std::mutex> lock(template_mutex_);
        templates_by_id_.emplace(frozen->id, frozen);
        for (const auto& evicted : template_cache_->put(*key, frozen)) {
            templates_by_id_.erase(evicted->id);
        }
    }
    return TemplateHandle{frozen->id};
}

util::StatusOr<CompileReport>
Service::bind(TemplateHandle handle, std::span<const double> values)
{
    util::trace::Span span("service.bind");
    const auto start = std::chrono::steady_clock::now();

    std::shared_ptr<const CompiledTemplate> tmpl;
    {
        std::lock_guard<std::mutex> lock(template_mutex_);
        auto it = templates_by_id_.find(handle.id);
        if (it != templates_by_id_.end()) tmpl = it->second;
    }
    if (tmpl == nullptr) {
        return util::Status::not_found(
            "unknown or evicted template handle " +
            std::to_string(handle.id));
    }
    if (values.size() != tmpl->param_names.size()) {
        std::string names;
        for (const auto& name : tmpl->param_names) {
            if (!names.empty()) names += ", ";
            names += name;
        }
        return util::Status::invalid_argument(
            "template " + std::to_string(handle.id) + " takes " +
            std::to_string(tmpl->param_names.size()) + " value(s) [" +
            names + "], got " + std::to_string(values.size()));
    }

    // Everything below is O(#params + #slots): the frozen schedule is
    // copied and the slot lists rewrite only the referenced angles.
    CompileReport report = tmpl->base;
    for (std::size_t p = 0; p < values.size(); ++p) {
        const auto ref = static_cast<circuit::ParamRef>(p);
        report.compiled.set_param_value(ref, values[p]);
        for (std::size_t index : tmpl->slots[p]) {
            report.compiled.set_angle(index, values[p]);
        }
    }
    const double bind_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    report.stages = {{"bind", bind_ms}};

    if (tmpl->simulate) {
        const auto sim_start = std::chrono::steady_clock::now();
        if (tmpl->sim_separate) {
            circuit::Circuit target = tmpl->sim_circuit;
            for (std::size_t p = 0; p < values.size(); ++p) {
                target.set_param_value(
                    static_cast<circuit::ParamRef>(p), values[p]);
                for (std::size_t index : tmpl->sim_slots[p]) {
                    target.set_angle(index, values[p]);
                }
            }
            report.counts = sim::simulate(target, tmpl->sim_options);
        } else {
            report.counts =
                sim::simulate(report.compiled, tmpl->sim_options);
        }
        report.stages.push_back(
            {"simulate", std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - sim_start)
                             .count()});
    }

    // Binds are not compile requests: they keep service.requests and
    // the stage histograms describing pipeline runs untouched.
    metrics_.add("service.binds", 1.0);
    metrics_.observe("service.bind_ms", report.total_ms());
    return report;
}

util::StatusOr<TemplateInfo>
Service::template_info(TemplateHandle handle) const
{
    std::shared_ptr<const CompiledTemplate> tmpl;
    {
        std::lock_guard<std::mutex> lock(template_mutex_);
        auto it = templates_by_id_.find(handle.id);
        if (it != templates_by_id_.end()) tmpl = it->second;
    }
    if (tmpl == nullptr) {
        return util::Status::not_found(
            "unknown or evicted template handle " +
            std::to_string(handle.id));
    }
    TemplateInfo info;
    info.id = tmpl->id;
    info.name = tmpl->base.name;
    info.backend = tmpl->base.backend;
    info.strategy = tmpl->base.strategy;
    info.param_names = tmpl->param_names;
    info.default_values = tmpl->default_values;
    return info;
}

void
Service::record_request_metrics(const CompileRequest& request,
                                const CompileReport& report)
{
    const bool mapped = report.ok() &&
                        (request.map_to_backend ||
                         request.strategy == Strategy::kSrCaqr);
    // Per-request aggregation: unlike the last-write-wins trace
    // gauges, every request lands in the histograms, so a batch's
    // metrics snapshot carries real p50/p90/p99 distributions. Cache
    // hits contribute too — the latency histograms describe what
    // clients actually observed.
    metrics_.add("service.requests", 1.0);
    if (!report.ok()) metrics_.add("service.failures", 1.0);
    metrics_.observe("service.total_ms", report.total_ms());
    for (const auto& stage : report.stages) {
        metrics_.observe("service.stage." + stage.stage + "_ms",
                         stage.ms);
    }
    const std::string tenant = sanitize_tenant(request.tenant);
    if (!tenant.empty()) {
        metrics_.add("service.requests.tenant." + tenant, 1.0);
        metrics_.observe("service.total_ms.tenant." + tenant,
                         report.total_ms());
    }
    if (report.ok()) {
        metrics_.observe("service.qubits",
                         static_cast<double>(report.qubits));
        metrics_.observe("service.depth",
                         static_cast<double>(report.depth));
        if (mapped) {
            metrics_.observe("service.swaps",
                             static_cast<double>(report.swaps));
            if (request.compute_esp) {
                metrics_.observe("service.esp", report.esp);
            }
        }
    }
}

util::metrics::Snapshot
Service::metrics_snapshot() const
{
    auto snapshot = metrics_.snapshot();
    snapshot.merge(util::metrics::global().snapshot());
    return snapshot;
}

std::vector<CompileReport>
Service::compile_batch(const std::vector<CompileRequest>& requests)
{
    util::trace::Span span("service.compile_batch");
    return pool_.map(requests.size(), [&](std::size_t index) {
        return compile(requests[index]);
    });
}

util::StatusOr<std::vector<CompileRequest>>
requests_from_path(const std::string& path, const CompileRequest& prototype)
{
    std::error_code ec;
    std::vector<std::string> files;
    if (fs::is_directory(path, ec)) {
        for (const auto& entry : fs::directory_iterator(path, ec)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".qasm") {
                files.push_back(entry.path().string());
            }
        }
        std::sort(files.begin(), files.end());
    } else if (fs::is_regular_file(path, ec)) {
        std::ifstream manifest(path);
        if (!manifest) {
            return util::Status::io_error("cannot open manifest '" +
                                          path + "'");
        }
        const fs::path base = fs::path(path).parent_path();
        std::string line;
        while (std::getline(manifest, line)) {
            const auto begin = line.find_first_not_of(" \t\r");
            if (begin == std::string::npos) continue;
            const auto end = line.find_last_not_of(" \t\r");
            line = line.substr(begin, end - begin + 1);
            if (line.empty() || line.front() == '#') continue;
            fs::path entry(line);
            if (entry.is_relative()) entry = base / entry;
            files.push_back(entry.string());
        }
    } else {
        return util::Status::not_found(
            "no such directory or manifest: '" + path + "'");
    }

    if (files.empty()) {
        return util::Status::invalid_argument(
            "'" + path + "' names no .qasm files");
    }
    std::vector<CompileRequest> requests;
    requests.reserve(files.size());
    for (const auto& file : files) {
        CompileRequest request = prototype;
        request.name.clear();
        request.circuit.reset();
        request.qasm.clear();
        request.commuting.reset();
        request.qasm_file = file;
        requests.push_back(std::move(request));
    }
    return requests;
}

}  // namespace caqr
