/**
 * @file
 * The direct-call pipeline of traced runs: the benchmark calls each
 * layer's public function itself, in the order `Service::compile` runs
 * its stages, and wraps every call in a span of its own.
 */
#ifndef CAQRBENCH_PIPELINE_H
#define CAQRBENCH_PIPELINE_H

#include <cstdint>
#include <string>

#include "bench.h"
#include "service/service.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace caqrbench {

/// Quality of one compiled output.
struct Quality
{
    int qubits = 0;
    int depth = 0;
    int swaps = 0;
    int reuses = 0;
    int cx = 0;
    double esp = 0.0;

    bool
    operator==(const Quality& o) const
    {
        return qubits == o.qubits && depth == o.depth && swaps == o.swaps && reuses == o.reuses &&
               cx == o.cx && esp == o.esp;
    }
};

Quality quality_of(const caqr::CompileReport& report);

/// Adds the quality totals over a workload's distinct outputs:
/// qubits_total, cx_total, depth_total, esp_geomean (and a
/// swaps_total detail line).
void add_quality_metrics(const std::vector<Quality>& quality, Outcome& out);

/// Median over three fresh services of building FakeMumbai plus
/// heavy_hex:433 through `Service::backend`, in ms.
double backend_build_ms();

/// Direct-call pipeline mirroring `Service::compile` stage by stage.
struct DirectResult
{
    Quality quality;
    int width = 0;
    bool ok = true;
    std::string error;
};

class DirectPipeline
{
  public:
    DirectPipeline(caqr::Service& service, Tracer& tracer, std::size_t noisy_shots)
        : service_(service),
          tracer_(tracer),
          noisy_shots_(noisy_shots),
          pool_(caqr::util::ThreadPool::resolve_threads(0) - 1)
    {
    }

    /// Work done by run() calls since construction or the last reset.
    struct Counts
    {
        std::size_t ideal_shots = 0;
        std::size_t noisy_shots = 0;
    };
    Counts counts;

    /// Runs @p job through parse -> backend -> reuse pass -> mapping
    /// -> ESP -> simulation, one span per layer call, all tagged @p id.
    DirectResult run(const Job& job, std::uint64_t id);

  private:
    caqr::Service& service_;
    Tracer& tracer_;
    std::size_t noisy_shots_;
    caqr::util::ThreadPool pool_;
};

}  // namespace caqrbench

#endif  // CAQRBENCH_PIPELINE_H
