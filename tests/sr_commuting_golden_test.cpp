/// Golden for SR-CaQR and the commuting QS-CaQR sweep on FakeMumbai:
/// every QS commuting version and every SR winner of the paper's
/// evaluation inputs (seeded QAOA graphs n = 12..16 at the benchmark
/// mix's density, plus the seven corpus circuits), pinned by
/// fingerprint and required at one, two and four threads.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/backend.h"
#include "core/qs_caqr.h"
#include "core/sr_caqr.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "util/rng.h"

namespace caqr {
namespace {

/// 64-bit FNV-1a.
std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// Seeded QAOA problem graph: @p nodes nodes and 3n(n-1)/20 distinct
/// edges (density 0.3), drawn by a partial Fisher-Yates shuffle of all
/// node pairs.
core::CommutingSpec
qaoa_spec(int nodes, util::Rng& rng)
{
    std::vector<std::pair<int, int>> all;
    for (int u = 0; u < nodes; ++u) {
        for (int v = u + 1; v < nodes; ++v) all.emplace_back(u, v);
    }
    const int edges = (3 * nodes * (nodes - 1)) / 20;
    core::CommutingSpec spec;
    spec.interaction = graph::UndirectedGraph(nodes);
    for (int i = 0; i < edges; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(i) +
            rng.next_below(all.size() - static_cast<std::size_t>(i));
        std::swap(all[static_cast<std::size_t>(i)], all[pick]);
        spec.interaction.add_edge(all[static_cast<std::size_t>(i)].first,
                                  all[static_cast<std::size_t>(i)].second);
    }
    return spec;
}

void
append_sr_line(const std::string& name, const core::SrCaqrResult& result,
               const arch::Backend& backend, std::string* out)
{
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "%s swaps=%d phys=%d depth=%d dt=%.17g esp=%.17g qasm=%016" PRIx64
        "\n",
        name.c_str(), result.swaps_added, result.physical_qubits_used,
        result.depth, result.duration_dt,
        arch::estimated_success_probability(result.circuit, backend),
        fnv1a(qasm::to_qasm(result.circuit)));
    *out += line;
}

/// Fingerprints of the whole golden set at @p num_threads, in a fixed
/// order. Each QAOA graph contributes its QS commuting versions, the
/// SR winner of every version's circuit, and the commuting SR winner.
std::string
golden_fingerprints(int num_threads)
{
    const auto backend = arch::Backend::fake_mumbai();
    core::SrCaqrOptions sr;
    sr.num_threads = num_threads;
    core::QsCommutingOptions qs;
    qs.num_threads = num_threads;

    std::string out;
    util::Rng rng(2023);
    for (int nodes = 12; nodes <= 16; ++nodes) {
        const auto spec = qaoa_spec(nodes, rng);
        const std::string name = "qaoa" + std::to_string(nodes);
        const auto versions = core::qs_caqr_commuting_or(spec, qs);
        EXPECT_TRUE(versions.ok()) << name;
        if (!versions.ok()) continue;
        for (std::size_t i = 0; i < versions->versions.size(); ++i) {
            const auto& version = versions->versions[i];
            char line[256];
            std::snprintf(line, sizeof(line),
                          "%s qs v%zu qubits=%d depth=%d dt=%.17g "
                          "qasm=%016" PRIx64 "\n",
                          name.c_str(), i, version.qubits,
                          version.schedule.depth,
                          version.schedule.duration_dt,
                          fnv1a(qasm::to_qasm(version.schedule.circuit)));
            out += line;
            const auto level =
                core::sr_caqr_or(version.schedule.circuit, backend, sr);
            EXPECT_TRUE(level.ok()) << name << " v" << i;
            if (level.ok()) {
                append_sr_line(name + " sr v" + std::to_string(i), *level,
                               backend, &out);
            }
        }
        const auto winner =
            core::sr_caqr_commuting_or(spec, backend, sr, qs);
        EXPECT_TRUE(winner.ok()) << name;
        if (winner.ok()) append_sr_line(name + " sr", *winner, backend, &out);
    }
    for (const std::string name :
         {"4mod5", "bv_10", "cc_10", "multiply_13", "rd32", "system_9",
          "xor_5"}) {
        auto parsed = qasm::parse_circuit_file(
            std::string(CAQR_CIRCUITS_DIR) + "/" + name + ".qasm");
        EXPECT_TRUE(parsed.ok()) << name;
        if (!parsed.ok()) continue;
        const auto result = core::sr_caqr_or(*parsed, backend, sr);
        EXPECT_TRUE(result.ok()) << name;
        if (result.ok()) append_sr_line(name + " sr", *result, backend, &out);
    }
    return out;
}

class SrCommutingGolden : public ::testing::TestWithParam<int>
{
};

TEST_P(SrCommutingGolden, EveryWinnerMatchesRecordedFingerprint)
{
    // On a mismatch the fresh fingerprints are written next to the test
    // binary (sr_commuting.<threads>.actual) for diffing.
    const std::string path =
        std::string(CAQR_TEST_DATA_DIR) + "/sr_commuting.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::stringstream expected;
    expected << in.rdbuf();

    const std::string actual = golden_fingerprints(GetParam());
    if (actual != expected.str()) {
        std::ofstream("sr_commuting." + std::to_string(GetParam()) +
                      ".actual")
            << actual;
    }
    std::istringstream want(expected.str());
    std::istringstream got(actual);
    std::string want_line;
    std::string got_line;
    int line = 0;
    while (std::getline(want, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got, got_line))
            << "fresh run ends before golden line " << line;
        ASSERT_EQ(want_line, got_line) << "golden line " << line;
    }
    EXPECT_FALSE(std::getline(got, got_line))
        << "fresh run has extra lines after line " << line;
    EXPECT_GT(line, 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, SrCommutingGolden,
                         ::testing::Values(1, 2, 4),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace caqr
