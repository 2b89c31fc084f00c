/**
 * @file
 * Shared pieces of the repository benchmark: run arguments, the result
 * every workload fills, order statistics, and the in-memory span
 * recorder used by traced runs.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library's public functions, never inside the library, so a traced
 * run measures the layers without changing them.
 */
#ifndef CAQRBENCH_BENCH_H
#define CAQRBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace caqrbench {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
ms_since(Clock::time_point start)
{
    return ms_between(start, Clock::now());
}

/// Command-line arguments of one benchmark run.
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    /// Second seed for the held-out check (serve_mix); derived from
    /// `seed` unless given.
    std::uint64_t holdout_seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";      ///< checkout root (holds circuits/)
    std::string out_dir;         ///< scratch outputs (inputs, traces)
    std::string git_sha = "unknown";
};

/// One reported metric.
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload run hands back to `main`.
struct Outcome
{
    long attempted = 0;
    long failed = 0;  ///< failed, refused, or wrong outputs
    std::vector<Metric> metrics;
    /// Every mismatch or failure, named; nonempty means incorrect.
    std::vector<std::string> errors;
    /// Free-form `key=value` detail lines printed before the result.
    std::vector<std::string> details;

    void
    error(std::string what)
    {
        errors.push_back(std::move(what));
    }
    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Nearest-rank percentile of @p values (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Samples strictly above the nearest-rank p-th percentile.
long samples_beyond(const std::vector<double>& values, double p);
/// Least-squares slope of log(y) against log(x).
double loglog_slope(const std::vector<std::pair<double, double>>& points);
/// Process peak resident set size in MiB.
double peak_rss_mb();
/// Formats @p value with 17 significant digits.
std::string num(double value);

/**
 * In-memory span recorder. Single-threaded: the traced runs call every
 * layer from the benchmark's one driving thread. Spans nest through an
 * explicit stack; each records its name, start, end, parent and the
 * request id it belongs to.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        int parent = -1;  ///< index into spans(), -1 for a root
        std::uint64_t request = 0;
        double ms() const { return (end_us - start_us) / 1000.0; }
    };

    /// RAII handle; the span closes when it leaves scope.
    class Scope
    {
      public:
        Scope(Tracer& tracer, std::string name, std::uint64_t request);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        int index_;  ///< -1 while the tracer is disabled
    };

    Tracer();

    /// While disabled, scopes record nothing and read no clock.
    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time (duration minus the time covered by child spans) of
    /// every span, indexed like spans().
    std::vector<double> self_ms() const;

    /// Chrome-trace JSON (`{"traceEvents": [...]}`), one complete
    /// event per span with its parent and request id as args.
    void write_chrome_trace(std::ostream& os) const;

  private:
    double now_us() const;

    Clock::time_point epoch_;
    bool enabled_ = true;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// Workload entry points; each fills an Outcome for `main` to print.
Outcome run_closed_loop(const Args& args);
Outcome run_serve_mix(const Args& args);

}  // namespace caqrbench

#endif  // CAQRBENCH_BENCH_H
