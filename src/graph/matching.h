/**
 * @file
 * Maximum-weight matching on general graphs.
 *
 * The commuting-gate scheduler (paper §3.2.2, Step 3) selects the set of
 * two-qubit gates to run in each layer as a maximum-weight matching of
 * the (weighted) qubit interaction graph, computed with Edmonds' Blossom
 * algorithm in O(V^3). The paper also notes that a greedy maximal
 * matching is a practical near-optimal substitute for large instances;
 * both are provided and the scheduler switches on instance size.
 */
#ifndef CAQR_GRAPH_MATCHING_H
#define CAQR_GRAPH_MATCHING_H

#include <memory>
#include <vector>

namespace caqr::graph {

/// Weighted undirected edge for the matching solvers.
struct WeightedEdge
{
    int u = 0;
    int v = 0;
    long long weight = 0;
};

/// Result of a matching computation.
struct MatchingResult
{
    /// mate[u] = matched partner of u, or -1 if u is unmatched.
    std::vector<int> mate;
    /// Sum of weights over matched edges.
    long long total_weight = 0;
    /// Number of matched pairs.
    int num_pairs = 0;
};

/**
 * Exact maximum-weight matching via Edmonds' Blossom algorithm, O(V^3).
 * Edges with non-positive weight are never matched (leaving a node
 * unmatched is free). Parallel edges keep the heaviest copy.
 *
 * @param num_nodes node count; ids in edges must be < num_nodes.
 */
MatchingResult max_weight_matching(int num_nodes,
                                   const std::vector<WeightedEdge>& edges);

/**
 * Storage for repeated exact matchings: the Blossom solver's flat
 * (2n+1)² edge and blossom tables and its per-node arrays, kept across
 * calls so a scheduler that matches once per round allocates once per
 * schedule. Results equal max_weight_matching() call for call. One
 * workspace serves one thread at a time.
 */
class MatchingWorkspace
{
  public:
    MatchingWorkspace();
    ~MatchingWorkspace();
    MatchingWorkspace(const MatchingWorkspace&) = delete;
    MatchingWorkspace& operator=(const MatchingWorkspace&) = delete;

    /// max_weight_matching() on this workspace's storage.
    MatchingResult max_weight_matching(int num_nodes,
                                       const std::vector<WeightedEdge>& edges);

  private:
    class Solver;
    std::unique_ptr<Solver> solver_;
};

/**
 * Greedy maximal matching: repeatedly take the heaviest remaining edge
 * whose endpoints are both free. 1/2-approximation, O(E log E); used for
 * large commuting circuits where the exact solver would dominate
 * compile time.
 */
MatchingResult greedy_matching(int num_nodes,
                               const std::vector<WeightedEdge>& edges);

/// True if @p result is a valid matching of the given instance
/// (symmetric mates, every matched pair connected by an input edge).
bool is_valid_matching(int num_nodes, const std::vector<WeightedEdge>& edges,
                       const MatchingResult& result);

}  // namespace caqr::graph

#endif  // CAQR_GRAPH_MATCHING_H
