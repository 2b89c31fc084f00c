#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"

namespace caqrbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    return values[index];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

long
samples_beyond(const std::vector<double>& values, double p)
{
    const double cut = percentile(values, p);
    return static_cast<long>(
        std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

double
loglog_slope(const std::vector<std::pair<double, double>>& points)
{
    if (points.size() < 2) return 0.0;
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (const auto& [x, y] : points) {
        const double lx = std::log(x);
        const double ly = std::log(y);
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    const double n = static_cast<double>(points.size());
    const double denom = n * sxx - sx * sx;
    return denom == 0.0 ? 0.0 : (n * sxy - sx * sy) / denom;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
num(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double
Tracer::now_us() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer), index_(tracer.enabled_ ? static_cast<int>(tracer.spans_.size()) : -1)
{
    if (index_ < 0) return;
    Span span;
    span.name = std::move(name);
    span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
    span.request = request;
    tracer.spans_.push_back(std::move(span));
    tracer.open_.push_back(index_);
    tracer.spans_.back().start_us = tracer.now_us();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0) return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end_us = tracer_.now_us();
    tracer_.open_.pop_back();
}

std::vector<double>
Tracer::self_ms() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
    for (const Span& span : spans_) {
        if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.ms();
    }
    return self;
}

void
Tracer::write_chrome_trace(std::ostream& os) const
{
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(span.start_us)
           << ",\"dur\":" << num(span.end_us - span.start_us) << ",\"args\":{\"id\":" << i
           << ",\"parent\":" << span.parent << ",\"req\":" << span.request << "}}";
    }
    os << "\n]}\n";
}

}  // namespace caqrbench
