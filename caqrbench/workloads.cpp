#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "bench.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "sim/simulator.h"
#include "transpile/verifier.h"

namespace caqrbench {

using caqr::util::Rng;
namespace circuit = caqr::circuit;

namespace {

/// Per-check false-alarm probability of the sampling bounds.
constexpr double kDelta = 1e-9;
/// Shots for a deterministic outcome: one wrong shot fails the check.
constexpr std::size_t kExpectedShots = 256;
/// Shots for a distribution compared within a sampling bound.
constexpr std::size_t kDistributionShots = 4096;
/// Shots per circuit per round of the simulation-rate probe are about
/// this many amplitude updates (instructions x 2^qubits used), within
/// the limits below, so no circuit dominates a round.
constexpr double kProbeAmplitudeUpdates = 4.0 * 1024 * 1024;
constexpr std::size_t kProbeMinShots = 16;
constexpr std::size_t kProbeMaxShots = 2048;

std::string
bits_name(const std::vector<int>& bits)
{
    std::string out;
    for (int bit : bits) out += bit ? '1' : '0';
    return out;
}

Job
circuit_job(std::string name, circuit::Circuit circuit, std::string expected)
{
    Job job;
    job.name = std::move(name);
    job.width = circuit.num_qubits();
    job.expected = std::move(expected);
    job.request.name = job.name;
    job.request.qasm = caqr::qasm::to_qasm(circuit);
    job.input = std::move(circuit);
    return job;
}

/// True when no gate follows a measurement on its qubit and nothing is
/// reset or conditioned, i.e. `sim::exact_distribution` accepts it.
bool
terminal_measurements_only(const circuit::Circuit& c)
{
    std::vector<bool> measured(static_cast<std::size_t>(c.num_qubits()), false);
    for (const auto& instr : c.instructions()) {
        if (instr.has_condition() || instr.kind == circuit::GateKind::kReset) return false;
        if (instr.kind == circuit::GateKind::kBarrier) continue;
        for (int q : instr.qubits) {
            if (measured[static_cast<std::size_t>(q)]) return false;
        }
        if (instr.kind == circuit::GateKind::kMeasure) {
            measured[static_cast<std::size_t>(instr.qubits[0])] = true;
        }
    }
    return true;
}

/// Folds outcome keys onto their first @p width clbits (compiled
/// circuits may append scratch clbits after the input's register).
template <typename Map>
bool
project(const Map& in, std::size_t width, Map* out)
{
    for (const auto& [key, value] : in) {
        if (key.size() < width) return false;
        (*out)[key.substr(0, width)] += value;
    }
    return true;
}

double
tvd(const std::map<std::string, double>& p, const std::map<std::string, double>& q)
{
    std::set<std::string> keys;
    for (const auto& entry : p) keys.insert(entry.first);
    for (const auto& entry : q) keys.insert(entry.first);
    double sum = 0.0;
    for (const auto& key : keys) {
        const auto a = p.find(key);
        const auto b = q.find(key);
        sum += std::abs((a == p.end() ? 0.0 : a->second) - (b == q.end() ? 0.0 : b->second));
    }
    return sum / 2.0;
}

/// Largest deviation between the one-bit marginals and the pairwise
/// disagreement probabilities of two distributions over @p width bits.
double
marginal_gap(const std::map<std::string, double>& p, const std::map<std::string, double>& q,
             std::size_t width)
{
    auto stats = [width](const std::map<std::string, double>& dist) {
        std::vector<double> out(width + width * width, 0.0);
        for (const auto& [key, prob] : dist) {
            for (std::size_t i = 0; i < width; ++i) {
                if (key[i] == '1') out[i] += prob;
                for (std::size_t j = i + 1; j < width; ++j) {
                    if (key[i] != key[j]) out[width + i * width + j] += prob;
                }
            }
        }
        return out;
    };
    const auto a = stats(p);
    const auto b = stats(q);
    double gap = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) gap = std::max(gap, std::abs(a[i] - b[i]));
    return gap;
}

}  // namespace

std::vector<int>
fixed_weight_bits(int n, int ones, Rng& rng)
{
    std::vector<int> bits(static_cast<std::size_t>(n), 0);
    std::fill(bits.begin(), bits.begin() + ones, 1);
    shuffle(bits, rng);
    return bits;
}

Job
bv_job(int width, Rng& rng)
{
    const auto secret = fixed_weight_bits(width - 1, (width - 1) / 2, rng);
    return circuit_job("bv" + std::to_string(width) + "_" + bits_name(secret),
                       caqr::apps::bv_circuit(width, secret),
                       caqr::apps::bv_expected(width, secret));
}

Job
cc_job(int width, Rng& rng)
{
    const auto fake = fixed_weight_bits(width - 1, (width - 1) / 2, rng);
    return circuit_job("cc" + std::to_string(width) + "_" + bits_name(fake),
                       caqr::apps::cc_circuit(width, fake), caqr::apps::cc_expected(width, fake));
}

Job
xor_job(int width, Rng& rng)
{
    // Parity of a seeded input word: data qubits fan CX into the last
    // qubit, so the outcome is the word followed by its parity.
    const int data = width - 1;
    const auto word = fixed_weight_bits(data, data / 2, rng);
    circuit::Circuit c(width, width);
    for (int q = 0; q < data; ++q) {
        if (word[static_cast<std::size_t>(q)]) c.x(q);
    }
    for (int q = 0; q < data; ++q) c.cx(q, data);
    for (int q = 0; q < width; ++q) c.measure(q, q);
    const int parity = std::accumulate(word.begin(), word.end(), 0) % 2;
    return circuit_job("xor" + std::to_string(width) + "_" + bits_name(word), std::move(c),
                       bits_name(word) + (parity ? "1" : "0"));
}

Job
file_job(const std::string& root, const std::string& stem)
{
    Job job;
    job.name = stem;
    job.request.qasm_file = root + "/circuits/" + stem + ".qasm";
    auto parsed = caqr::qasm::parse_circuit_file(job.request.qasm_file);
    if (parsed.ok()) job.input = std::move(parsed).value();
    job.width = job.input.num_qubits();
    return job;
}

Job
qaoa_job(int nodes, int edges, Rng& rng)
{
    std::vector<std::pair<int, int>> all;
    for (int u = 0; u < nodes; ++u) {
        for (int v = u + 1; v < nodes; ++v) all.emplace_back(u, v);
    }
    caqr::graph::UndirectedGraph graph(nodes);
    for (int i = 0; i < edges; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(i) +
            rng.next_below(static_cast<std::uint64_t>(all.size()) - static_cast<std::uint64_t>(i));
        std::swap(all[static_cast<std::size_t>(i)], all[pick]);
        graph.add_edge(all[static_cast<std::size_t>(i)].first,
                       all[static_cast<std::size_t>(i)].second);
    }
    caqr::core::CommutingSpec spec;
    spec.interaction = graph;
    Job job;
    job.name = "qaoa" + std::to_string(nodes) + "_" + std::to_string(rng.next_below(1u << 20));
    job.width = nodes;
    job.request.name = job.name;
    job.request.commuting = spec;
    caqr::apps::QaoaParams params;
    params.gammas = {spec.gamma};
    params.betas = {spec.beta};
    job.input = caqr::apps::qaoa_circuit(graph, params);
    return job;
}

int
cx_count(const circuit::Circuit& circuit)
{
    return circuit.two_qubit_gate_count() + 2 * circuit.swap_count();
}

std::string
check_output(const Job& job, const caqr::CompileReport& report, const caqr::arch::Backend* backend)
{
    const std::string who = job.name + "/" + report.strategy;
    if (!report.ok()) return who + ": " + report.status.to_string();
    if (!report.backend.empty()) {
        const auto verdict = caqr::transpile::verify_circuit(report.compiled, backend);
        if (!verdict.ok()) return who + ": verify_circuit: " + verdict.issues.front().message;
    }
    const std::size_t width = static_cast<std::size_t>(job.input.num_clbits());

    // A reference with one outcome (classical reversible circuits)
    // is checked like BV/CC/XOR: every shot must produce it.
    std::string expected = job.expected;
    std::map<std::string, double> exact;
    if (expected.empty()) {
        exact = caqr::sim::exact_distribution(job.input);
        if (exact.size() == 1 && exact.begin()->second > 1.0 - 1e-9) {
            expected = exact.begin()->first;
        }
    }

    if (expected.empty() && terminal_measurements_only(report.compiled)) {
        // No mid-circuit operations: compare exact distributions.
        std::map<std::string, double> compiled;
        if (!project(caqr::sim::exact_distribution(report.compiled), width, &compiled)) {
            return who + ": compiled register narrower than the input's";
        }
        const double distance = tvd(exact, compiled);
        return distance > 1e-9 ? who + ": exact TVD " + num(distance) + " > 1e-9" : "";
    }

    caqr::sim::SimOptions options;
    options.shots = expected.empty() ? kDistributionShots : kExpectedShots;
    options.seed = 0x0AC1Eull;
    options.num_threads = 0;  // shot-parallel; counts do not depend on it
    caqr::sim::Counts projected;
    if (!project(caqr::sim::simulate(report.compiled, options), width, &projected)) {
        return who + ": compiled register narrower than the input's";
    }

    if (!expected.empty()) {
        if (projected.size() != 1 || projected.begin()->first != expected) {
            return who + ": expected " + expected + " on every shot, got " +
                   std::to_string(projected.size()) + " distinct outcomes";
        }
        return "";
    }

    const double shots = static_cast<double>(options.shots);
    std::map<std::string, double> sampled;
    for (const auto& [key, count] : projected) sampled[key] = static_cast<double>(count) / shots;
    // L1 deviation bound over a support of k outcomes:
    // P(TVD >= t) <= 2^k exp(-2 N t^2).
    const double k = static_cast<double>(exact.size());
    const double bound = std::sqrt((k * std::log(2.0) + std::log(1.0 / kDelta)) / (2.0 * shots));
    if (bound <= 0.1) {
        const double distance = tvd(exact, sampled);
        return distance > bound ? who + ": TVD " + num(distance) + " > sampling bound " + num(bound)
                                : "";
    }
    // Support too large for a whole-register bound: Hoeffding with a
    // union bound over every one-bit marginal and pairwise parity.
    const double tests = static_cast<double>(width + width * (width - 1) / 2);
    const double pair_bound = std::sqrt(std::log(2.0 * tests / kDelta) / (2.0 * shots));
    const double gap = marginal_gap(exact, sampled, width);
    return gap > pair_bound
               ? who + ": marginal gap " + num(gap) + " > sampling bound " + num(pair_bound)
               : "";
}

SimProbe::SimProbe(std::vector<caqr::circuit::Circuit> circuits)
    : circuits_(std::move(circuits)), ms_(circuits_.size())
{
    for (const auto& c : circuits_) {
        std::set<int> used;
        for (const auto& instr : c.instructions()) {
            used.insert(instr.qubits.begin(), instr.qubits.end());
        }
        const double instructions = static_cast<double>(std::max<std::size_t>(c.size(), 1));
        const double shots = kProbeAmplitudeUpdates /
                             (instructions * std::ldexp(1.0, static_cast<int>(used.size())));
        shots_.push_back(static_cast<std::size_t>(std::clamp(
            shots, static_cast<double>(kProbeMinShots), static_cast<double>(kProbeMaxShots))));
    }
}

void
SimProbe::round()
{
    caqr::sim::SimOptions options;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
        options.shots = shots_[i];
        const auto t0 = Clock::now();
        caqr::sim::simulate(circuits_[i], options);
        ms_[i].push_back(ms_since(t0));
    }
    ++rounds_;
}

double
SimProbe::shots_per_s() const
{
    if (circuits_.empty() || rounds_ == 0) return 0.0;
    double log_sum = 0.0;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
        log_sum += std::log(static_cast<double>(shots_[i]) / (median(ms_[i]) / 1000.0));
    }
    return std::exp(log_sum / static_cast<double>(circuits_.size()));
}

}  // namespace caqrbench
