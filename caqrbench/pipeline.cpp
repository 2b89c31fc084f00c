#include "pipeline.h"

#include <cmath>

#include "core/qs_caqr.h"
#include "core/sr_caqr.h"
#include "qasm/parser.h"
#include "sim/noise_model.h"
#include "sim/simulator.h"
#include "transpile/transpiler.h"

namespace caqrbench {

using caqr::CompileRequest;
using caqr::Strategy;

Quality
quality_of(const caqr::CompileReport& report)
{
    return {report.qubits, report.depth, report.swaps, report.reuses, cx_count(report.compiled),
            report.esp};
}

void
add_quality_metrics(const std::vector<Quality>& quality, Outcome& out)
{
    double qubits = 0, depth = 0, cx = 0, swaps = 0, log_esp = 0;
    for (const Quality& q : quality) {
        qubits += q.qubits;
        depth += q.depth;
        cx += q.cx;
        swaps += q.swaps;
        log_esp += std::log(q.esp);
    }
    out.add("qubits_total", qubits, "count");
    out.add("cx_total", cx, "count");
    out.add("depth_total", depth, "count");
    out.add("esp_geomean", std::exp(log_esp / static_cast<double>(quality.size())), "ratio");
    out.details.push_back("swaps_total=" + num(swaps));
}

double
backend_build_ms()
{
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
        caqr::Service fresh;
        const auto start = Clock::now();
        fresh.backend("FakeMumbai");
        fresh.backend("heavy_hex:433");
        samples.push_back(ms_since(start));
    }
    return median(samples);
}

DirectResult
DirectPipeline::run(const Job& job, std::uint64_t id)
{
    DirectResult result;
    const CompileRequest& request = job.request;
    auto fail = [&](const caqr::util::Status& status) {
        result.ok = false;
        result.error = job.name + ": " + status.to_string();
        return result;
    };

    caqr::circuit::Circuit input{0, 0};
    if (!request.commuting.has_value()) {
        Tracer::Scope span(tracer_, "qasm.parse", id);
        auto parsed = request.qasm.empty() ? caqr::qasm::parse_circuit_file(request.qasm_file)
                                           : caqr::qasm::parse_circuit(request.qasm);
        if (!parsed.ok()) return fail(parsed.status());
        input = std::move(parsed).value();
    }

    std::shared_ptr<const caqr::arch::Backend> backend;
    {
        Tracer::Scope span(tracer_, "arch.backend", id);
        auto resolved = service_.backend(request.backend);
        if (!resolved.ok()) return fail(resolved.status());
        backend = *resolved;
    }

    caqr::transpile::TranspileOptions transpile_options = request.transpile;
    caqr::core::SrCaqrOptions sr_options = request.sr;
    if (pool_.size() > 0) {
        transpile_options.pool = &pool_;
        sr_options.pool = &pool_;
    }

    caqr::circuit::Circuit reuse_level{0, 0};
    caqr::circuit::Circuit compiled{0, 0};
    Quality& q = result.quality;
    switch (request.strategy) {
      case Strategy::kBaseline:
        reuse_level = input;
        q.qubits = input.active_qubit_count();
        break;
      case Strategy::kQsCaqr: {
        Tracer::Scope span(tracer_, "core.qs_caqr", id);
        auto res = caqr::core::qs_caqr_or(input, request.qs);
        if (!res.ok()) return fail(res.status());
        const auto& version = res->max_reuse();
        reuse_level = version.circuit;
        q.qubits = version.qubits;
        q.reuses = static_cast<int>(version.applied.size());
        result.width = input.num_qubits();
        break;
      }
      case Strategy::kQsCommuting: {
        Tracer::Scope span(tracer_, "core.qs_commuting", id);
        auto res = caqr::core::qs_caqr_commuting_or(*request.commuting, request.qs_commuting);
        if (!res.ok()) return fail(res.status());
        const auto& version = res->versions.back();
        reuse_level = version.schedule.circuit;
        q.qubits = version.qubits;
        q.reuses = static_cast<int>(version.pairs.size());
        break;
      }
      case Strategy::kSrCaqr: {
        Tracer::Scope span(tracer_, "core.sr_caqr", id);
        auto res = request.commuting.has_value()
                       ? caqr::core::sr_caqr_commuting_or(*request.commuting, *backend,
                                                          sr_options, request.qs_commuting)
                       : caqr::core::sr_caqr_or(input, *backend, sr_options);
        if (!res.ok()) return fail(res.status());
        compiled = std::move(res->circuit);
        q.qubits = res->physical_qubits_used;
        q.swaps = res->swaps_added;
        q.reuses = res->reuses;
        q.depth = res->depth;
        break;
      }
    }

    if (request.strategy != Strategy::kSrCaqr) {
        Tracer::Scope span(tracer_, "transpile.map", id);
        auto res = caqr::transpile::transpile_or(reuse_level, *backend, transpile_options);
        if (!res.ok()) return fail(res.status());
        compiled = std::move(res->circuit);
        q.swaps = res->swaps_added;
        q.depth = res->depth;
    }
    q.cx = cx_count(compiled);
    {
        Tracer::Scope span(tracer_, "arch.esp", id);
        q.esp = caqr::arch::estimated_success_probability(compiled, *backend);
    }
    if (request.simulate) {
        Tracer::Scope span(tracer_, "sim.ideal", id);
        caqr::sim::simulate(request.strategy == Strategy::kSrCaqr ? compiled : reuse_level,
                            request.sim);
        counts.ideal_shots += request.sim.shots;
    }
    if (noisy_shots_ > 0) {
        Tracer::Scope span(tracer_, "sim.noisy", id);
        caqr::sim::SimOptions options;
        options.shots = noisy_shots_;
        caqr::sim::simulate(compiled, options, caqr::sim::NoiseModel::from_backend(*backend));
        counts.noisy_shots += noisy_shots_;
    }
    return result;
}

}  // namespace caqrbench
