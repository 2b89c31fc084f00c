/// Tests for maximum-weight matching: known instances, blossom
/// (odd-cycle) cases, and exhaustive differential testing against a
/// brute-force oracle on random small graphs.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "graph/matching.h"
#include "util/rng.h"

namespace caqr {
namespace {

using graph::MatchingResult;
using graph::WeightedEdge;

/// Brute force: maximum-weight matching by recursion over edges.
long long
brute_force_best(int num_nodes, const std::vector<WeightedEdge>& edges)
{
    long long best = 0;
    std::vector<bool> used(static_cast<std::size_t>(num_nodes), false);
    std::function<void(std::size_t, long long)> go =
        [&](std::size_t index, long long weight) {
            best = std::max(best, weight);
            for (std::size_t e = index; e < edges.size(); ++e) {
                const auto& edge = edges[e];
                if (edge.weight <= 0) continue;
                if (used[edge.u] || used[edge.v]) continue;
                used[edge.u] = used[edge.v] = true;
                go(e + 1, weight + edge.weight);
                used[edge.u] = used[edge.v] = false;
            }
        };
    go(0, 0);
    return best;
}

TEST(Matching, SingleEdge)
{
    const std::vector<WeightedEdge> edges = {{0, 1, 5}};
    const auto result = graph::max_weight_matching(2, edges);
    EXPECT_EQ(result.total_weight, 5);
    EXPECT_EQ(result.num_pairs, 1);
    EXPECT_EQ(result.mate[0], 1);
    EXPECT_EQ(result.mate[1], 0);
    EXPECT_TRUE(graph::is_valid_matching(2, edges, result));
}

TEST(Matching, TriangleTakesHeaviestEdge)
{
    const std::vector<WeightedEdge> edges = {
        {0, 1, 3}, {1, 2, 5}, {0, 2, 4}};
    const auto result = graph::max_weight_matching(3, edges);
    EXPECT_EQ(result.total_weight, 5);
    EXPECT_EQ(result.num_pairs, 1);
}

TEST(Matching, PathPrefersEnds)
{
    // Path 0-1-2-3 with weights 10, 1, 10: pick the two outer edges.
    const std::vector<WeightedEdge> edges = {
        {0, 1, 10}, {1, 2, 1}, {2, 3, 10}};
    const auto result = graph::max_weight_matching(4, edges);
    EXPECT_EQ(result.total_weight, 20);
    EXPECT_EQ(result.num_pairs, 2);
}

TEST(Matching, CardinalityVsWeightTradeoff)
{
    // One heavy edge beats two light ones.
    const std::vector<WeightedEdge> edges = {
        {0, 1, 100}, {0, 2, 30}, {1, 3, 30}};
    const auto result = graph::max_weight_matching(4, edges);
    EXPECT_EQ(result.total_weight, 100);
}

TEST(Matching, OddCycleBlossom)
{
    // 5-cycle with uniform weights: best = 2 edges.
    const std::vector<WeightedEdge> edges = {
        {0, 1, 7}, {1, 2, 7}, {2, 3, 7}, {3, 4, 7}, {4, 0, 7}};
    const auto result = graph::max_weight_matching(5, edges);
    EXPECT_EQ(result.total_weight, 14);
    EXPECT_EQ(result.num_pairs, 2);
}

TEST(Matching, BlossomWithStem)
{
    // Classic blossom-forcing structure: triangle {1,2,3} with a stem
    // 0-1 and a tail 3-4.
    const std::vector<WeightedEdge> edges = {
        {0, 1, 6}, {1, 2, 5}, {2, 3, 5}, {1, 3, 5}, {3, 4, 6}};
    const auto result = graph::max_weight_matching(5, edges);
    // 0-1, 2-3 unavailable together with 3-4; optimum: 0-1 (6), 2-3 (5)
    // = 11 vs 0-1, 3-4 (12): take 12.
    EXPECT_EQ(result.total_weight, 12);
}

TEST(Matching, ZeroAndNegativeWeightsIgnored)
{
    const std::vector<WeightedEdge> edges = {
        {0, 1, 0}, {1, 2, -5}, {2, 3, 4}};
    const auto result = graph::max_weight_matching(4, edges);
    EXPECT_EQ(result.total_weight, 4);
    EXPECT_EQ(result.mate[0], -1);
    EXPECT_EQ(result.mate[1], -1);
}

TEST(Matching, EmptyGraph)
{
    const auto result = graph::max_weight_matching(0, {});
    EXPECT_EQ(result.total_weight, 0);
    EXPECT_EQ(result.num_pairs, 0);
}

TEST(Matching, IsolatedNodes)
{
    const auto result = graph::max_weight_matching(4, {{1, 2, 3}});
    EXPECT_EQ(result.total_weight, 3);
    EXPECT_EQ(result.mate[0], -1);
    EXPECT_EQ(result.mate[3], -1);
}

TEST(Matching, GreedyIsValidAndHalfOptimal)
{
    const std::vector<WeightedEdge> edges = {
        {0, 1, 10}, {1, 2, 1}, {2, 3, 10}, {0, 3, 2}};
    const auto greedy = graph::greedy_matching(4, edges);
    EXPECT_TRUE(graph::is_valid_matching(4, edges, greedy));
    const auto exact = graph::max_weight_matching(4, edges);
    EXPECT_GE(2 * greedy.total_weight, exact.total_weight);
}

/// Differential property sweep: Blossom equals brute force on random
/// graphs up to 9 nodes with assorted weights.
class MatchingDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(MatchingDifferential, MatchesBruteForce)
{
    util::Rng rng(5000 + GetParam());
    const int n = 2 + GetParam() % 8;
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.next_bool(0.55)) {
                edges.push_back(
                    {u, v, static_cast<long long>(rng.next_int(1, 12))});
            }
        }
    }
    const auto result = graph::max_weight_matching(n, edges);
    ASSERT_TRUE(graph::is_valid_matching(n, edges, result));

    // Recompute weight from mates to confirm internal consistency.
    long long recomputed = 0;
    for (int u = 0; u < n; ++u) {
        const int v = result.mate[u];
        if (v <= u) continue;
        long long w = 0;
        for (const auto& e : edges) {
            if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
                w = std::max(w, e.weight);
            }
        }
        recomputed += w;
    }
    EXPECT_EQ(recomputed, result.total_weight);
    EXPECT_EQ(result.total_weight, brute_force_best(n, edges))
        << "n=" << n << " edges=" << edges.size();

    // Greedy must stay within 2x of optimum.
    const auto greedy = graph::greedy_matching(n, edges);
    EXPECT_TRUE(graph::is_valid_matching(n, edges, greedy));
    EXPECT_GE(2 * greedy.total_weight, result.total_weight);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MatchingDifferential,
                         ::testing::Range(0, 60));

/// One workspace across interleaved instance sizes: grids and blossom
/// lists left over from a larger, blossom-heavy solve must not leak
/// into the next. Every solve equals a fresh-workspace solve mate for
/// mate, and brute force where it is cheap.
TEST(MatchingWorkspace, ReuseMatchesFreshSolves)
{
    util::Rng rng(777);
    graph::MatchingWorkspace workspace;
    int solves = 0;
    for (int round = 0; round < 12; ++round) {
        for (const int n : {16, 5, 16, 1, 12, 0, 9, 16, 3, 10}) {
            // Alternate weight spreads: uniform weights force
            // blossoms, wide ones exercise the dual adjustments.
            const int max_weight = (round % 3 == 0) ? 1 : 4 + 5 * round;
            std::vector<WeightedEdge> edges;
            for (int u = 0; u < n; ++u) {
                for (int v = u + 1; v < n; ++v) {
                    if (rng.next_bool(0.35)) {
                        edges.push_back({u, v,
                                         static_cast<long long>(
                                             rng.next_int(1, max_weight))});
                    }
                }
            }
            const auto reused = workspace.max_weight_matching(n, edges);
            const auto fresh = graph::max_weight_matching(n, edges);
            ASSERT_EQ(reused.mate, fresh.mate)
                << "round " << round << " n=" << n;
            EXPECT_EQ(reused.total_weight, fresh.total_weight);
            EXPECT_EQ(reused.num_pairs, fresh.num_pairs);
            ASSERT_TRUE(graph::is_valid_matching(n, edges, reused));
            if (n <= 10) {
                EXPECT_EQ(reused.total_weight, brute_force_best(n, edges))
                    << "round " << round << " n=" << n;
            }
            ++solves;
        }
    }
    EXPECT_EQ(solves, 120);
}

/// Uniform-weight sweep: maximum weight == maximum cardinality here,
/// which stresses blossom formation specifically.
class MatchingCardinality : public ::testing::TestWithParam<int>
{
};

TEST_P(MatchingCardinality, UniformWeights)
{
    util::Rng rng(9000 + GetParam());
    const int n = 3 + GetParam() % 7;
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.next_bool(0.5)) edges.push_back({u, v, 1});
        }
    }
    const auto result = graph::max_weight_matching(n, edges);
    ASSERT_TRUE(graph::is_valid_matching(n, edges, result));
    EXPECT_EQ(result.total_weight, brute_force_best(n, edges));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MatchingCardinality,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace caqr
