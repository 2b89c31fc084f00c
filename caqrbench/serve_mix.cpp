/**
 * @file
 * serve_mix: open-loop traffic against an in-process `serve::Server`
 * with the compile cache on — the only workload where the service,
 * server, cache and telemetry layers do most of the work.
 *
 * One generator thread sends a seeded mix over at most `nproc`
 * loopback connections (nproc - 1 line-protocol sessions plus one
 * one-shot HTTP scrape at a time) on a fixed schedule, whether or not
 * earlier requests have returned:
 *
 *  - hot repeat compiles of a small set (cache hits);
 *  - cold compiles cycling through more distinct small circuits than
 *    the cache holds (misses that also evict);
 *  - `template`/`bind` pairs on QAOA templates;
 *  - `GET /metrics` scrapes.
 *
 * Each request is timed from when it was due, so a stall is charged to
 * every request it delays. The run steps through fixed rates, reports
 * how late the generator ran and whether the backlog grew at each
 * step, then repeats the middle step on inputs made from the held-out
 * seed.
 */
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "bench.h"
#include "pipeline.h"
#include "qasm/printer.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/server.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workloads.h"

namespace caqrbench {

namespace {

namespace fs = std::filesystem;
using caqr::CompileReport;
using caqr::CompileRequest;
using caqr::Service;
using caqr::serve::Client;
using caqr::util::Rng;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kCacheCapacity = 64;
constexpr int kHotInputs = 8;
/// Distinct cold inputs; far above kCacheCapacity, so a cyclic walk
/// over them misses every time and evicts once the cache is full.
constexpr int kColdInputs = 256;
constexpr int kTemplates = 3;
constexpr int kValueSets = 4;
/// Fixed p99 latency limit of the workload.
constexpr double kSloMs = 25.0;
/// Offered rates (operations per second; a template/bind pair is one
/// operation and two requests). All sit below the server's capacity on
/// a 4-thread host, so the steps measure latency under load rather
/// than the knee. The top rate runs as kWindows back-to-back windows
/// and takes kTopShare of the main phase; the latency metrics are the
/// median over those windows, so a few seconds of host contention move
/// them less than one pooled percentile.
constexpr double kRates[] = {200.0, 400.0, 800.0};
constexpr int kWindows = 8;
constexpr double kTopShare = 0.7;
/// Share of the run spent on the held-out seed's inputs.
constexpr double kHoldoutShare = 0.15;

enum class Kind { kHot, kCold, kTemplate, kBind, kScrape };

/// One scheduled operation of the mix.
struct Op
{
    Kind kind = Kind::kHot;
    int index = 0;   ///< input (hot/cold) or template index
    int values = 0;  ///< value set of a bind
};

struct Template
{
    Job job;  ///< input is the symbolic circuit
    std::vector<std::vector<double>> values;
    std::uint64_t id = 0;  ///< server-side handle once warmed
};

/// The distinct inputs made from one seed, written under `dir`.
struct Inputs
{
    std::string dir;
    std::vector<Job> hot;
    std::vector<Job> cold;
    std::vector<Template> templates;
    /// Expected response rows without the trailing total_ms column.
    std::vector<std::string> hot_rows, cold_rows;
    std::vector<std::vector<std::string>> bind_rows;
    std::vector<Quality> quality;
    std::vector<caqr::circuit::Circuit> outputs;  ///< compiled, for the sim probe
};

/// The request a protocol session builds for `compile <path>`.
CompileRequest
session_request(const std::string& path)
{
    CompileRequest request;
    request.qasm_file = path;
    request.qs.num_threads = 1;
    request.qs_commuting.num_threads = 1;
    request.transpile.num_threads = 1;
    request.sr.num_threads = 1;
    return request;
}

Job
write_job(Job job, const std::string& path)
{
    std::ofstream(path) << job.request.qasm;
    job.request = session_request(path);
    return job;
}

Template
make_template(int nodes, const std::string& path, Rng& rng)
{
    const Job graph = qaoa_job(nodes, nodes + nodes / 2, rng);
    caqr::circuit::Circuit c(nodes, nodes);
    const auto gamma = c.add_param("gamma0", 1.4);
    const auto beta = c.add_param("beta0", 0.6);
    for (int q = 0; q < nodes; ++q) c.h(q);
    for (const auto& [u, v] : graph.request.commuting->interaction.edges()) c.rzz_sym(gamma, u, v);
    for (int q = 0; q < nodes; ++q) c.rx_sym(beta, q);
    for (int q = 0; q < nodes; ++q) c.measure(q, q);
    Template t;
    t.job.name = fs::path(path).stem().string();
    t.job.width = nodes;
    t.job.input = c;
    t.job.request = session_request(path);
    std::ofstream(path) << caqr::qasm::to_qasm_template(c);
    for (int i = 0; i < kValueSets; ++i) {
        t.values.push_back({0.2 + 2.8 * rng.next_double(), 0.2 + 2.8 * rng.next_double()});
    }
    return t;
}

/// Writes the inputs of one seed. Every circuit's text is new to
/// @p seen: the cache is content-addressed, so two files with equal
/// bytes would share an entry and one would be answered under the
/// other's name.
Inputs
make_inputs(std::uint64_t seed, const std::string& out_dir, std::set<std::string>& seen)
{
    Inputs in;
    in.dir = out_dir + "/serve_inputs_" + std::to_string(seed);
    fs::create_directories(in.dir);
    Rng rng(seed, 1);
    // Fixed-weight words leave C(w-1, (w-1)/2) circuits per kind and
    // width; widths up to 11 leave room for both seeds' inputs. (CC
    // builds the same gates as BV, so it would add no new texts.)
    auto small = [&](int i, const char* prefix, int lo, int hi) {
        for (int tries = 0; tries < 100000; ++tries) {
            const int width =
                lo + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
            Job job = i % 2 == 0 ? bv_job(width, rng) : xor_job(width, rng);
            if (seen.insert(job.request.qasm).second) {
                return write_job(std::move(job), in.dir + "/" + prefix + std::to_string(i) + ".qasm");
            }
        }
        std::fprintf(stderr, "serve_mix: ran out of distinct %s inputs\n", prefix);
        std::exit(2);
    };
    for (int i = 0; i < kHotInputs; ++i) in.hot.push_back(small(i, "hot", 5, 8));
    for (int i = 0; i < kColdInputs; ++i) in.cold.push_back(small(i, "cold", 4, 11));
    for (int i = 0; i < kTemplates; ++i) {
        in.templates.push_back(
            make_template(6 + i, in.dir + "/tmpl" + std::to_string(i) + ".qasm", rng));
    }
    return in;
}

/// Seeded operation sequence in shuffled blocks of 50: 33 hot, 4 cold,
/// 7 template/bind pairs and 6 scrapes, so every seed sends the same
/// shares. Cold inputs are visited in one seeded cycle. The cold share
/// keeps the compile pipeline below half of request time, so the
/// serving layers dominate this workload.
std::vector<Op>
make_ops(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed, 3);
    std::vector<int> cold_order(kColdInputs);
    std::iota(cold_order.begin(), cold_order.end(), 0);
    shuffle(cold_order, rng);
    std::vector<Kind> block;
    block.insert(block.end(), 33, Kind::kHot);
    block.insert(block.end(), 4, Kind::kCold);
    block.insert(block.end(), 7, Kind::kTemplate);
    block.insert(block.end(), 6, Kind::kScrape);
    std::vector<Op> ops;
    std::size_t cold_next = 0;
    while (ops.size() < count) {
        shuffle(block, rng);
        for (Kind kind : block) {
            Op op{kind, 0, 0};
            if (kind == Kind::kHot) {
                op.index = static_cast<int>(rng.next_below(kHotInputs));
            } else if (kind == Kind::kCold) {
                op.index = cold_order[cold_next++ % kColdInputs];
            } else if (kind == Kind::kTemplate) {
                op.index = static_cast<int>(rng.next_below(kTemplates));
                op.values = static_cast<int>(rng.next_below(kValueSets));
            }
            ops.push_back(op);
        }
    }
    ops.resize(count);
    return ops;
}

/// Everything but the trailing total_ms column of a CSV row.
std::string
row_prefix(const std::string& row)
{
    return row.substr(0, row.rfind(','));
}

double
row_total_ms(const std::string& row)
{
    return std::stod(row.substr(row.rfind(',') + 1));
}

/// Expected rows and oracle verdicts from an in-process reference
/// service; the program's counters are read while this runs.
void
make_reference(Inputs& in, Outcome& out)
{
    Service ref;
    std::vector<CompileRequest> requests;
    for (const Job& job : in.hot) requests.push_back(job.request);
    for (const Job& job : in.cold) requests.push_back(job.request);
    const auto reports = ref.compile_batch(requests);
    const auto backend = ref.backend("FakeMumbai");
    auto check = [&](const Job& job, const CompileReport& report) {
        const std::string verdict = check_output(job, report, backend->get());
        if (!verdict.empty()) out.error("oracle " + verdict);
        in.outputs.push_back(report.compiled);
        in.quality.push_back(quality_of(report));
        return row_prefix(caqr::batch_csv_row(report));
    };
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const bool hot = i < in.hot.size();
        const Job& job = hot ? in.hot[i] : in.cold[i - in.hot.size()];
        (hot ? in.hot_rows : in.cold_rows).push_back(check(job, reports[i]));
    }
    for (Template& t : in.templates) {
        const auto handle = ref.compile_template(t.job.request);
        std::vector<std::string> rows;
        for (const auto& values : t.values) {
            if (!handle.ok()) {
                out.error("reference template " + t.job.name + ": " + handle.status().to_string());
                rows.emplace_back();
                continue;
            }
            const auto report = ref.bind(*handle, values);
            Job bound = t.job;
            bound.input.bind_params(values);
            rows.push_back(report.ok() ? check(bound, *report) : std::string());
            if (!report.ok()) out.error("reference bind " + t.job.name);
        }
        in.bind_rows.push_back(std::move(rows));
    }
}

/// A running server plus its sessions.
struct Setup
{
    std::unique_ptr<Service> service;
    std::unique_ptr<caqr::serve::Server> server;
    std::vector<std::unique_ptr<Client>> sessions;
    Inputs main, holdout;
    double seconds = 0.0;
};

std::string
compile_line(const Job& job)
{
    return "compile " + job.request.qasm_file;
}

std::string
bind_line(const Template& t, int values)
{
    std::ostringstream os;
    os.precision(17);
    os << "bind " << t.id;
    for (double v : t.values[static_cast<std::size_t>(values)]) os << ' ' << v;
    return os.str();
}

/// Compiles the hot set and every template once through the server, so
/// the timed steps start from a warm cache; records template handles.
bool
warm(Client& client, Inputs& in, Outcome& out)
{
    for (const Job& job : in.hot) {
        const auto response = client.command(compile_line(job));
        if (!response.ok() || !response->ok) {
            out.error("warm-up compile " + job.name);
            return false;
        }
    }
    for (Template& t : in.templates) {
        const auto response = client.command("template " + t.job.request.qasm_file);
        if (!response.ok() || !response->ok) {
            out.error("warm-up template " + t.job.name);
            return false;
        }
        const std::string& line = response->final_line();
        const auto at = line.find("id=");
        t.id = at == std::string::npos ? 0 : std::stoull(line.substr(at + 3));
    }
    return true;
}

int
session_count()
{
    return std::max(1, caqr::util::ThreadPool::resolve_threads(0) - 1);
}

bool
set_up(const Args& args, Setup& setup, Outcome& out)
{
    // Tear down in dependency order: sessions, then the server, then
    // the service it borrows.
    setup.sessions.clear();
    setup.server.reset();
    setup.service.reset();
    const auto start = Clock::now();
    caqr::ServiceOptions options;
    options.cache_capacity = kCacheCapacity;
    setup.service = std::make_unique<Service>(options);
    setup.service->backend("FakeMumbai");
    // Deeper per-session queues than the default 8: with three
    // pipelined sessions, a few milliseconds of host stall would
    // otherwise turn into `error busy` refusals.
    caqr::serve::ServerOptions server_options;
    server_options.session_queue_limit = 32;
    setup.server = std::make_unique<caqr::serve::Server>(*setup.service, server_options);
    if (const auto status = setup.server->start(); !status.ok()) {
        out.error("server start: " + status.to_string());
        return false;
    }
    for (int i = 0; i < session_count(); ++i) {
        auto client = std::make_unique<Client>();
        if (!client->connect("127.0.0.1", setup.server->port()).ok() ||
            !client->command("version").ok()) {
            out.error("session connect");
            return false;
        }
        setup.sessions.push_back(std::move(client));
    }
    std::set<std::string> seen;
    setup.main = make_inputs(args.seed, args.out_dir, seen);
    setup.holdout = make_inputs(args.holdout_seed, args.out_dir, seen);
    if (!warm(*setup.sessions[0], setup.main, out) || !warm(*setup.sessions[0], setup.holdout, out)) {
        return false;
    }
    setup.seconds = ms_since(start) / 1000.0;
    return true;
}

/// True for a 200 answer to `GET /metrics` carrying caqr series.
bool
metrics_page_ok(const caqr::util::StatusOr<std::string>& body)
{
    return body.ok() && body->rfind("HTTP/1.0 200", 0) == 0 && body->find("caqr_") != std::string::npos;
}

/// One blocking HTTP scrape of /metrics.
bool
scrape_once(int port)
{
    Client client;
    if (!client.connect("127.0.0.1", port).ok()) return false;
    if (!client.send_raw("GET /metrics HTTP/1.0\r\n\r\n").ok()) return false;
    return metrics_page_ok(client.read_until_close(5000));
}

/// Checks one line-protocol response against the expected row.
bool
response_ok(const caqr::serve::Response& response, const std::string& expected)
{
    if (!response.ok) return false;
    const std::string& line = response.final_line();
    if (expected.empty()) return line.rfind("ok template id=", 0) == 0;
    return line.size() > 3 && row_prefix(line.substr(3)) == expected;
}

// ---------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------

struct Request
{
    Clock::time_point due;
    std::string expected;  ///< empty for template replies
    int step = 0;
    Kind kind = Kind::kHot;
};

struct StepStats
{
    double rate = 0.0;
    double seconds = 0.0;
    Clock::time_point start;
    Clock::time_point last_done;  ///< latest answer to this step's requests
    std::vector<double> latency;  ///< per request, failures included
    long failed = 0;
    std::vector<double> lateness;
    std::size_t backlog_start = 0;
    std::size_t backlog_end = 0;

    bool grew() const { return backlog_end > std::max<std::size_t>(8, 2 * backlog_start); }
    double
    slo_met() const
    {
        const long met = std::count_if(latency.begin(), latency.end(),
                                       [](double ms) { return ms <= kSloMs; });
        return latency.empty() ? 0.0 : static_cast<double>(met) / static_cast<double>(latency.size());
    }
    /// Sustained lateness, not a single stall: the median send is more
    /// than a millisecond late, or the p99 send misses the whole limit.
    bool
    behind() const
    {
        return percentile(lateness, 50) > 1.0 || percentile(lateness, 99) > kSloMs;
    }
    /// Requests answered per second, from the step's first due time to
    /// its last answer.
    double
    achieved_rps() const
    {
        const double ms = ms_between(start, last_done);
        return ms > 0 ? static_cast<double>(latency.size()) / (ms / 1000.0) : 0.0;
    }
    bool
    meets_slo() const
    {
        return !latency.empty() && slo_met() >= 0.99 && !grew() && !behind();
    }
};

class Generator
{
  public:
    Generator(Setup& setup, Outcome& out) : setup_(setup), out_(out), queues_(setup.sessions.size())
    {
    }

    /// Runs @p steps back to back on @p in's inputs.
    std::vector<StepStats>
    run(Inputs& in, std::uint64_t seed, const std::vector<std::pair<double, double>>& steps)
    {
        std::vector<StepStats> stats(steps.size());
        std::vector<Clock::time_point> due;
        std::vector<int> step_of;
        auto t = Clock::now() + std::chrono::milliseconds(5);
        std::vector<Clock::time_point> step_start, step_end;
        for (std::size_t s = 0; s < steps.size(); ++s) {
            stats[s].rate = steps[s].first;
            stats[s].seconds = steps[s].second;
            const auto count = static_cast<std::size_t>(steps[s].first * steps[s].second);
            step_start.push_back(t);
            stats[s].start = t;
            for (std::size_t k = 0; k < count; ++k) {
                due.push_back(t + std::chrono::nanoseconds(
                                      static_cast<long long>(1e9 * static_cast<double>(k) / steps[s].first)));
                step_of.push_back(static_cast<int>(s));
            }
            t += std::chrono::nanoseconds(static_cast<long long>(1e9 * steps[s].second));
            step_end.push_back(t);
        }
        const std::vector<Op> ops = make_ops(due.size(), seed);

        std::size_t next = 0;
        std::size_t marked = 0;  // steps whose start backlog was taken
        std::size_t ended = 0;   // steps whose end backlog was taken
        const auto drain_deadline = t + std::chrono::seconds(30);
        while (next < ops.size() || outstanding() > 0) {
            const auto now = Clock::now();
            while (marked < steps.size() && now >= step_start[marked]) {
                stats[marked++].backlog_start = outstanding();
            }
            while (ended < steps.size() && now >= step_end[ended]) {
                stats[ended++].backlog_end = outstanding();
            }
            while (next < ops.size() && due[next] <= now) {
                stats[static_cast<std::size_t>(step_of[next])].lateness.push_back(
                    ms_between(due[next], now));
                issue(in, ops[next], due[next], step_of[next], stats);
                ++next;
            }
            if (!scrape_due_.empty() && scrape_ == nullptr) start_scrape(stats);
            if (now > drain_deadline) {
                out_.error("serve_mix: responses still outstanding 30 s after the last step");
                break;
            }
            const auto wake = next < ops.size() ? due[next] : now + std::chrono::milliseconds(2);
            wait_io(std::max(std::chrono::nanoseconds(0), wake - Clock::now()), stats);
        }
        while (ended < steps.size()) stats[ended++].backlog_end = outstanding();
        return stats;
    }

  private:
    std::size_t
    outstanding() const
    {
        std::size_t n = scrape_due_.size() + (scrape_ != nullptr ? 1 : 0);
        for (const auto& q : queues_) n += q.size();
        return n;
    }

    void
    record(std::vector<StepStats>& stats, const Request& request, bool ok)
    {
        StepStats& step = stats[static_cast<std::size_t>(request.step)];
        step.last_done = Clock::now();
        step.latency.push_back(ms_between(request.due, step.last_done));
        by_kind[static_cast<int>(request.kind)].push_back(step.latency.back());
        ++out_.attempted;
        if (!ok) {
            ++step.failed;
            ++out_.failed;
        }
    }

    void
    send(std::size_t conn, const std::string& line, Request request, std::vector<StepStats>& stats)
    {
        if (!setup_.sessions[conn]->send_line(line).ok()) {
            out_.error("serve_mix: send failed: " + line);
            record(stats, request, false);
            return;
        }
        queues_[conn].push_back(std::move(request));
    }

    void
    issue(Inputs& in, const Op& op, Clock::time_point due, int step, std::vector<StepStats>& stats)
    {
        if (op.kind == Kind::kScrape) {
            scrape_due_.push_back({due, "", step, Kind::kScrape});
            return;
        }
        std::size_t conn = 0;
        for (std::size_t c = 1; c < queues_.size(); ++c) {
            if (queues_[c].size() < queues_[conn].size()) conn = c;
        }
        const auto i = static_cast<std::size_t>(op.index);
        if (op.kind == Kind::kHot) {
            send(conn, compile_line(in.hot[i]), {due, in.hot_rows[i], step, Kind::kHot}, stats);
        } else if (op.kind == Kind::kCold) {
            send(conn, compile_line(in.cold[i]), {due, in.cold_rows[i], step, Kind::kCold}, stats);
        } else {
            const Template& t = in.templates[i];
            send(conn, "template " + t.job.request.qasm_file, {due, "", step, Kind::kTemplate}, stats);
            send(conn, bind_line(t, op.values),
                 {due, in.bind_rows[i][static_cast<std::size_t>(op.values)], step, Kind::kBind},
                 stats);
        }
    }

    void
    start_scrape(std::vector<StepStats>& stats)
    {
        Request request = scrape_due_.front();
        scrape_due_.pop_front();
        scrape_ = std::make_unique<Client>();
        if (!scrape_->connect("127.0.0.1", setup_.server->port()).ok() ||
            !scrape_->send_raw("GET /metrics HTTP/1.0\r\n\r\n").ok()) {
            out_.error("serve_mix: scrape connect failed");
            record(stats, request, false);
            scrape_.reset();
            return;
        }
        scrape_request_ = request;
    }

    void
    wait_io(std::chrono::nanoseconds timeout, std::vector<StepStats>& stats)
    {
        std::vector<pollfd> fds;
        for (const auto& session : setup_.sessions) fds.push_back({session->fd(), POLLIN, 0});
        if (scrape_ != nullptr) fds.push_back({scrape_->fd(), POLLIN, 0});
        const timespec ts{static_cast<time_t>(timeout.count() / 1000000000),
                          static_cast<long>(timeout.count() % 1000000000)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
        for (std::size_t c = 0; c < setup_.sessions.size(); ++c) {
            if (fds[c].revents == 0) continue;
            // One readable event may carry several buffered responses;
            // the zero-timeout reads drain them without blocking.
            int timeout_ms = 5000;
            while (!queues_[c].empty()) {
                const auto response = setup_.sessions[c]->read_response(timeout_ms);
                timeout_ms = 0;
                if (!response.ok()) {
                    if (response.status().message().find("timed out") == std::string::npos) {
                        out_.error("serve_mix: session read: " + response.status().to_string());
                        for (const auto& request : queues_[c]) record(stats, request, false);
                        queues_[c].clear();
                    }
                    break;
                }
                const Request request = queues_[c].front();
                queues_[c].pop_front();
                const bool ok = response_ok(*response, request.expected);
                if (!ok && response->final_line().rfind("error busy", 0) == 0) {
                    ++refused;
                } else if (!ok) {
                    out_.error("serve_mix: wrong response '" + response->final_line() + "'");
                }
                record(stats, request, ok);
            }
        }
        if (scrape_ != nullptr && fds.back().revents != 0) {
            const bool ok = metrics_page_ok(scrape_->read_until_close(5000));
            if (!ok) out_.error("serve_mix: bad /metrics scrape");
            record(stats, scrape_request_, ok);
            scrape_.reset();
        }
    }

    Setup& setup_;
    Outcome& out_;
    std::vector<std::deque<Request>> queues_;
    std::deque<Request> scrape_due_;
    std::unique_ptr<Client> scrape_;  ///< the one scrape in flight
    Request scrape_request_;

  public:
    /// Latencies of every request so far, by Kind.
    std::map<int, std::vector<double>> by_kind;
    /// `error busy` refusals so far.
    long refused = 0;
};

std::string
step_line(const char* label, const StepStats& s)
{
    std::ostringstream os;
    os << label << " rate_ops_per_s=" << s.rate << " requests=" << s.latency.size()
       << " failed=" << s.failed << " p50_ms=" << num(percentile(s.latency, 50))
       << " p99_ms=" << num(percentile(s.latency, 99))
       << " beyond_p99=" << samples_beyond(s.latency, 99) << " slo_met=" << num(s.slo_met())
       << " late_p50_ms=" << num(percentile(s.lateness, 50))
       << " late_p99_ms=" << num(percentile(s.lateness, 99))
       << " late_max_ms=" << num(percentile(s.lateness, 100)) << " backlog_start=" << s.backlog_start
       << " backlog_end=" << s.backlog_end << " backlog_grew=" << (s.grew() ? 1 : 0)
       << " generator_behind=" << (s.behind() ? 1 : 0);
    return os.str();
}

std::vector<double>
set_up_repeatedly(const Args& args, Setup& setup, Outcome& out)
{
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (!set_up(args, setup, out)) return {};
        times.push_back(setup.seconds);
    }
    return times;
}

void
header(Outcome& out)
{
    const int hw = caqr::util::ThreadPool::resolve_threads(0);
    out.details.push_back("pools service_threads=" + std::to_string(hw) +
                          " server_workers=" + std::to_string(hw) + " line_sessions=" +
                          std::to_string(session_count()) + " scrape_connections=1");
    out.details.push_back("cache_capacity=" + std::to_string(kCacheCapacity) +
                          " hot_inputs=" + std::to_string(kHotInputs) +
                          " cold_inputs=" + std::to_string(kColdInputs) +
                          " templates=" + std::to_string(kTemplates) + " slo_ms=" + num(kSloMs));
}

// ---------------------------------------------------------------------
// Timed run
// ---------------------------------------------------------------------

Outcome
timed_run(const Args& args)
{
    Outcome out;
    header(out);
    Setup setup;
    const auto setups = set_up_repeatedly(args, setup, out);
    if (setups.empty()) return out;
    make_reference(setup.main, out);
    make_reference(setup.holdout, out);

    const double main_seconds = args.seconds * (1.0 - kHoldoutShare);
    std::vector<std::pair<double, double>> steps;
    const double low_seconds = main_seconds * (1.0 - kTopShare) / (std::size(kRates) - 1);
    for (std::size_t r = 0; r + 1 < std::size(kRates); ++r) steps.emplace_back(kRates[r], low_seconds);
    for (int w = 0; w < kWindows; ++w) {
        steps.emplace_back(kRates[std::size(kRates) - 1], main_seconds * kTopShare / kWindows);
    }
    Generator generator(setup, out);
    const auto stats = generator.run(setup.main, args.seed, steps);
    const auto holdout = generator.run(
        setup.holdout, args.holdout_seed, {{kRates[std::size(kRates) / 2], args.seconds * kHoldoutShare}});

    std::vector<double> latency;
    long failed = 0;
    bool behind = false;
    std::map<double, std::vector<const StepStats*>> by_rate;
    for (std::size_t s = 0; s < stats.size(); ++s) {
        latency.insert(latency.end(), stats[s].latency.begin(), stats[s].latency.end());
        failed += stats[s].failed;
        behind = behind || stats[s].behind();
        by_rate[stats[s].rate].push_back(&stats[s]);
        out.details.push_back(step_line(("step" + std::to_string(s)).c_str(), stats[s]));
    }
    out.details.push_back(step_line("holdout", holdout[0]));
    static const char* kKindNames[] = {"hot", "cold", "template", "bind", "scrape"};
    for (const auto& [kind, samples] : generator.by_kind) {
        out.details.push_back(std::string("kind ") + kKindNames[kind] + " requests=" +
                              std::to_string(samples.size()) + " p50_ms=" + num(percentile(samples, 50)) +
                              " p90_ms=" + num(percentile(samples, 90)));
    }
    if (behind || holdout[0].behind()) {
        out.error("serve_mix: the generator fell behind its schedule; latencies are not valid");
    }
    // A rate meets the limit when every step run at it does; its
    // throughput is the median of those steps' answered requests/s.
    double best_rps = 0.0;
    for (const auto& [rate, group] : by_rate) {
        if (!std::all_of(group.begin(), group.end(), [](const StepStats* s) { return s->meets_slo(); })) {
            continue;
        }
        std::vector<double> rps;
        for (const StepStats* step : group) rps.push_back(step->achieved_rps());
        best_rps = median(rps);
    }
    const long met = std::count_if(latency.begin(), latency.end(), [](double ms) { return ms <= kSloMs; });
    const double n = static_cast<double>(latency.size());
    out.add("setup_s", median(setups), "s");
    out.add("compiles_per_s",
            n / (ms_between(stats.front().start, stats.back().last_done) / 1000.0), "1/s");
    // Every window's percentile has more than ten samples beyond it.
    const auto& windows = by_rate.rbegin()->second;
    auto window_percentile = [&windows](double p) {
        std::vector<double> per_window;
        for (const StepStats* window : windows) per_window.push_back(percentile(window->latency, p));
        return median(per_window);
    };
    out.add("latency_p50_ms", window_percentile(50), "ms");
    out.add("latency_p90_ms", window_percentile(90), "ms");
    out.add("latency_p99_ms", window_percentile(99), "ms");
    SimProbe probe(setup.main.outputs);
    const auto probe_start = Clock::now();
    while (probe.rounds() < SimProbe::kMinRounds || ms_since(probe_start) < 1500.0) probe.round();
    out.add("shots_per_s", probe.shots_per_s(), "1/s");
    out.add("slo_met_ratio", static_cast<double>(met - failed) / n, "ratio");
    out.add("max_rps_under_slo", best_rps, "1/s");
    out.add("ok_ratio", (n - static_cast<double>(failed)) / n, "ratio");
    add_quality_metrics(setup.main.quality, out);
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.details.push_back("samples=" + std::to_string(latency.size()) +
                          " beyond_p99=" + std::to_string(samples_beyond(latency, 99)));
    out.details.push_back("error_ratio=" + num(static_cast<double>(failed) / n));
    out.details.push_back("busy_rejects=" + std::to_string(setup.server->stats().rejected_busy) +
                          " refused_requests=" + std::to_string(generator.refused));
    out.details.push_back("shots_per_s_source=ideal simulation of each distinct output");
    const auto cache = setup.service->compile_cache_stats();
    out.details.push_back("cache hits=" + std::to_string(cache.hits) + " misses=" +
                          std::to_string(cache.misses) + " evictions=" + std::to_string(cache.evictions));
    return out;
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

Outcome
traced_run(const Args& args)
{
    Outcome out;
    header(out);
    Setup setup;
    const auto setups = set_up_repeatedly(args, setup, out);
    if (setups.empty()) return out;
    out.details.push_back("setup_s=" + num(median(setups)));
    caqr::util::trace::reset();
    caqr::util::trace::set_enabled(true);
    make_reference(setup.main, out);
    caqr::util::trace::set_enabled(false);
    const auto counters = caqr::util::trace::collect().counters;
    caqr::util::trace::reset();
    const auto snapshot = caqr::util::metrics::global().snapshot();

    Inputs& in = setup.main;
    Client& session = *setup.sessions[0];
    Service& service = *setup.service;
    const auto ops = make_ops(100000, args.seed);

    Tracer tracer;
    DirectPipeline direct(service, tracer, 0);
    std::size_t cursor = 0;
    // One line-protocol round trip; fills *total_ms from the row when
    // the command answers one.
    auto roundtrip = [&](const std::string& line, const std::string& expected, std::uint64_t id,
                         double* total_ms) -> double {
        const auto t0 = Clock::now();
        caqr::util::StatusOr<caqr::serve::Response> response =
            caqr::util::Status::internal("not sent");
        {
            Tracer::Scope span(tracer, "server.roundtrip", id);
            response = session.command(line);
        }
        const double ms = ms_since(t0);
        ++out.attempted;
        if (!response.ok() || !response_ok(*response, expected)) {
            ++out.failed;
            out.error("serve_mix traced: bad response to '" + line + "'");
        } else if (!expected.empty()) {
            *total_ms = row_total_ms(response->final_line());
        }
        return ms;
    };

    // Walks the mix one operation at a time: the server round trips
    // under a "request" span, then direct calls into the layers for
    // the same operation. The walk runs twice, first with span
    // recording off (the base of the tracing overhead), then on.
    std::vector<double> plain, traced, wait, lookup, service_overhead;
    double pipeline_ms = 0.0, replay_ms = 0.0;
    std::uint64_t id = 0;
    auto walk = [&](double seconds, std::vector<double>& roundtrips) {
        const auto phase_start = Clock::now();
        while (ms_since(phase_start) < seconds * 1000.0) {
            const Op& op = ops[cursor++ % ops.size()];
            const auto i = static_cast<std::size_t>(op.index);
            const bool compile = op.kind == Kind::kHot || op.kind == Kind::kCold;
            const Job* job = op.kind == Kind::kHot ? &in.hot[i] : op.kind == Kind::kCold ? &in.cold[i] : nullptr;
            ++id;
            const auto hits_before = service.compile_cache_stats().hits;
            double total = -1.0, total_bind = -1.0;
            {
                Tracer::Scope root(tracer, "request", id);
                if (compile) {
                    roundtrips.push_back(roundtrip(
                        compile_line(*job), op.kind == Kind::kHot ? in.hot_rows[i] : in.cold_rows[i],
                        id, &total));
                } else if (op.kind == Kind::kTemplate) {
                    const Template& t = in.templates[i];
                    roundtrip("template " + t.job.request.qasm_file, "", id, nullptr);
                    const double rt = roundtrip(bind_line(t, op.values),
                                                in.bind_rows[i][static_cast<std::size_t>(op.values)],
                                                id, &total_bind);
                    roundtrips.push_back(rt);
                    if (tracer.enabled() && total_bind >= 0.0) wait.push_back(rt - total_bind);
                } else {
                    Tracer::Scope span(tracer, "server.scrape", id);
                    ++out.attempted;
                    if (!scrape_once(setup.server->port())) {
                        ++out.failed;
                        out.error("serve_mix traced: bad /metrics scrape");
                    }
                }
            }
            if (compile && total >= 0.0 && tracer.enabled()) {
                wait.push_back(roundtrips.back() - total);
                if (service.compile_cache_stats().hits > hits_before) {
                    lookup.push_back(total);
                } else {
                    pipeline_ms += total;
                }
            }

            if (op.kind == Kind::kCold) {
                Tracer::Scope root(tracer, "replay", id);
                const auto t0 = Clock::now();
                const DirectResult result = direct.run(*job, id);
                if (tracer.enabled()) replay_ms += ms_since(t0);
                if (!result.ok) out.error("serve_mix replay: " + result.error);
            }
            if (compile) {
                CompileReport report;
                const auto t0 = Clock::now();
                {
                    Tracer::Scope root(tracer, "service.compile", id);
                    report = service.compile(job->request);
                }
                double stages = 0.0;
                for (const auto& stage : report.stages) stages += stage.ms;
                if (tracer.enabled()) service_overhead.push_back(ms_since(t0) - stages);
            } else if (op.kind == Kind::kTemplate) {
                const Template& t = in.templates[i];
                Tracer::Scope root(tracer, "service.bind", id);
                const auto report = service.bind(caqr::TemplateHandle{t.id},
                                                 t.values[static_cast<std::size_t>(op.values)]);
                if (!report.ok()) out.error("serve_mix direct bind: " + report.status().to_string());
            }
        }
    };
    tracer.set_enabled(false);
    walk(args.seconds * 0.3, plain);
    tracer.set_enabled(true);
    const auto before = service.compile_cache_stats();
    const auto busy_before = setup.server->stats().rejected_busy;
    walk(args.seconds * 0.7, traced);
    const auto after = service.compile_cache_stats();

    const auto& spans = tracer.spans();
    const auto self = tracer.self_ms();
    double request_ms = 0.0, covered_ms = 0.0;
    std::map<std::string, double> layer_ms;
    std::map<std::string, long> layer_calls;
    for (std::size_t s = 0; s < spans.size(); ++s) {
        const auto& span = spans[s];
        if (span.parent < 0) {
            layer_ms[span.name] += span.ms();
            ++layer_calls[span.name];
            if (span.name == "request") request_ms += span.ms();
            continue;
        }
        layer_ms[span.name] += self[s];
        ++layer_calls[span.name];
        if (spans[static_cast<std::size_t>(span.parent)].name == "request") covered_ms += span.ms();
    }
    auto mean = [&](const std::string& name) {
        return layer_calls[name] > 0 ? layer_ms[name] / static_cast<double>(layer_calls[name]) : 0.0;
    };
    auto mean_of = [](const std::vector<double>& v) {
        return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
    };
    std::vector<std::string> absent;
    double swaps = 0, reuses = 0;
    for (const Quality& q : in.quality) {
        swaps += q.swaps;
        reuses += q.reuses;
    }
    const auto memo = snapshot.histograms.find("qs_caqr.memo_hit_rate");
    const auto trials = counters.find("transpile.layout_trials");
    const auto pruned = counters.find("transpile.trials_pruned");
    const double lookups = static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));

    out.add("qasm.parse_ms", mean("qasm.parse"), "ms");
    out.add("arch.backend_build_ms", backend_build_ms(), "ms");
    out.add("arch.esp_ms", mean("arch.esp"), "ms");
    out.add("core.qs_caqr_ms", mean("core.qs_caqr"), "ms");
    absent.push_back("core.qs_caqr_scaling_exp (fitted on reuse_wide's width ladder only)");
    out.add("core.qs_caqr_scaling_exp", 0.0, "exponent");
    out.add("core.qs_caqr_reuses", reuses, "count");
    out.add("core.qs_caqr_memo_hit_ratio",
            memo == snapshot.histograms.end() ? 0.0 : memo->second.mean(), "ratio");
    absent.push_back("core.qs_commuting_ms (serve_mix compiles with qs_caqr only)");
    out.add("core.qs_commuting_ms", 0.0, "ms");
    absent.push_back("core.sr_caqr_ms (serve_mix compiles with qs_caqr only)");
    out.add("core.sr_caqr_ms", 0.0, "ms");
    out.add("transpile.map_ms", mean("transpile.map"), "ms");
    out.add("transpile.swaps", swaps, "count");
    out.add("transpile.trials_pruned_ratio",
            trials == counters.end() || trials->second == 0.0 || pruned == counters.end()
                ? 0.0
                : pruned->second / trials->second,
            "ratio");
    absent.push_back("sim.* (serve_mix never simulates)");
    out.add("sim.simulate_ms", 0.0, "ms");
    out.add("sim.ideal_shots_per_s", 0.0, "1/s");
    out.add("sim.noisy_shots_per_s", 0.0, "1/s");
    out.add("service.overhead_ms", mean_of(service_overhead), "ms");
    out.add("service.cache_lookup_ms", mean_of(lookup), "ms");
    out.add("service.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0.0, "ratio");
    out.add("service.cache_evictions", static_cast<double>(after.evictions - before.evictions), "count");
    out.add("service.bind_ms", mean("service.bind"), "ms");
    out.add("server.wait_ms", mean_of(wait), "ms");
    out.add("server.busy_rejects",
            static_cast<double>(setup.server->stats().rejected_busy - busy_before), "count");
    out.add("trace.span_coverage", request_ms > 0 ? covered_ms / request_ms : 0.0, "ratio");
    out.add("trace.stage_agreement", pipeline_ms > 0 ? replay_ms / pipeline_ms : 0.0, "ratio");
    out.add("trace.overhead_ratio", median(plain) > 0 ? median(traced) / median(plain) : 0.0, "ratio");

    // Request time splits into the compile pipeline of cache misses
    // (the rows' server-side total_ms) and everything else: transport,
    // protocol, queueing, cache lookups, templates, binds and scrapes.
    auto share = [&](double ms) { return num(request_ms > 0 ? ms / request_ms : 0.0); };
    out.details.push_back("stage_shares service_server=" + share(request_ms - pipeline_ms) +
                          " compile_pipeline=" + share(pipeline_ms) +
                          " server_wait=" + share(std::accumulate(wait.begin(), wait.end(), 0.0)) +
                          " scrape=" + share(layer_ms["server.scrape"]));
    out.details.push_back("traced_operations=" + std::to_string(id));
    for (const auto& reason : absent) out.details.push_back("absent " + reason);
    const std::string path = args.out_dir + "/serve_mix_seed" + std::to_string(args.seed) + ".trace.json";
    std::ofstream file(path);
    tracer.write_chrome_trace(file);
    out.details.push_back("chrome_trace=" + path);
    return out;
}

}  // namespace

Outcome
run_serve_mix(const Args& args)
{
    return args.trace ? traced_run(args) : timed_run(args);
}

}  // namespace caqrbench
