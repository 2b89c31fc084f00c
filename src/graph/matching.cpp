#include "graph/matching.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "util/logging.h"

namespace caqr::graph {

/**
 * O(V^3) maximum-weight matching (Edmonds' Blossom with dual variables),
 * following the classic formulation with explicit blossom nodes in the
 * range (n, 2n]. Internally 1-indexed; node 0 is the null sentinel.
 *
 * Weights are doubled internally so that dual variables stay integral.
 *
 * The edge and blossom-membership tables are flat (2n+1)² grids that
 * outlive one solve: solve() resets every cell a fresh solver would
 * start from, so reuse changes allocation only, never a mate.
 */
class MatchingWorkspace::Solver
{
  public:
    /// Runs the solver on a fresh instance; returns mates 0-indexed.
    ///
    /// Nodes that no positive-weight edge touches are left out of the
    /// solve. Such a node stays a free root in every phase, as does
    /// every node that ends unmatched, so its dual always equals theirs;
    /// it never enters a comparison the others do not already decide.
    /// The remaining nodes keep their relative order, so every scan and
    /// tie-break sees them as the full instance would, and the mates
    /// are the same; the O(n^3) work shrinks to the touched nodes.
    MatchingResult
    solve(int n, const std::vector<WeightedEdge>& edges)
    {
        local_of_.assign(static_cast<std::size_t>(n), 0);
        for (const auto& e : edges) {
            CAQR_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                       "matching edge endpoint out of range");
            if (e.u == e.v || e.weight <= 0) continue;
            local_of_[e.u] = local_of_[e.v] = 1;
        }
        node_of_.clear();
        for (int u = 0; u < n; ++u) {
            if (local_of_[u] == 0) continue;
            node_of_.push_back(u);
            local_of_[u] = static_cast<int>(node_of_.size());  // 1-indexed
        }

        reset(static_cast<int>(node_of_.size()));
        for (const auto& e : edges) {
            if (e.u == e.v || e.weight <= 0) continue;
            const int u = local_of_[e.u];
            const int v = local_of_[e.v];
            // Weights are doubled so every dual quantity stays integral.
            const long long w = std::max({g(u, v).w, 2 * e.weight});
            g(u, v).w = g(v, u).w = w;
        }

        n_x_ = n_;
        long long weight = 0;
        for (int u = 0; u <= n_; ++u) st_[u] = u;

        long long w_max = 0;
        for (int u = 1; u <= n_; ++u) {
            for (int v = 1; v <= n_; ++v) {
                w_max = std::max(w_max, g(u, v).w);
            }
        }
        for (int u = 1; u <= n_; ++u) lab_[u] = w_max;

        while (run_one_phase()) {}

        for (int u = 1; u <= n_; ++u) {
            if (match_[u] && match_[u] < u) weight += g(u, match_[u]).w;
        }
        weight /= 2;  // undo the internal doubling

        MatchingResult result;
        result.mate.assign(static_cast<std::size_t>(n), -1);
        for (int u = 1; u <= n_; ++u) {
            if (match_[u]) {
                result.mate[node_of_[u - 1]] = node_of_[match_[u] - 1];
                if (match_[u] > u) ++result.num_pairs;
            }
        }
        result.total_weight = weight;
        return result;
    }

  private:
    struct EdgeCell
    {
        int u = 0, v = 0;
        long long w = 0;
    };

    int n_ = 0;
    int n_x_ = 0;
    std::size_t cap_ = 0;  ///< 2n+1: grid stride of the current solve
    std::vector<EdgeCell> g_;  ///< cap_ x cap_ edge table
    std::vector<long long> lab_;
    std::vector<int> match_, slack_, st_, pa_, s_, vis_;
    std::vector<std::vector<int>> flo_;
    std::vector<int> flo_from_;  ///< cap_ x cap_ blossom membership
    std::deque<int> queue_;
    int lca_timestamp_ = 0;
    std::vector<int> local_of_;  ///< caller node -> solver node, 0 = left out
    std::vector<int> node_of_;   ///< solver node - 1 -> caller node

    EdgeCell&
    g(int u, int v)
    {
        return g_[static_cast<std::size_t>(u) * cap_ +
                  static_cast<std::size_t>(v)];
    }
    const EdgeCell&
    g(int u, int v) const
    {
        return g_[static_cast<std::size_t>(u) * cap_ +
                  static_cast<std::size_t>(v)];
    }
    int&
    flo_from(int b, int x)
    {
        return flo_from_[static_cast<std::size_t>(b) * cap_ +
                         static_cast<std::size_t>(x)];
    }

    /// Puts every table into the state a freshly built solver for @p n
    /// nodes starts from; storage only grows.
    void
    reset(int n)
    {
        n_ = n;
        cap_ = static_cast<std::size_t>(2 * n + 1);
        g_.assign(cap_ * cap_, EdgeCell{});
        flo_from_.assign(cap_ * cap_, 0);
        for (int u = 1; u <= n_; ++u) {
            for (int v = 1; v <= n_; ++v) g(u, v) = EdgeCell{u, v, 0};
            flo_from(u, u) = u;
        }
        for (auto* row : {&match_, &slack_, &st_, &pa_, &s_, &vis_}) {
            row->assign(cap_, 0);
        }
        lab_.assign(cap_, 0);
        if (flo_.size() < cap_) flo_.resize(cap_);
        for (auto& children : flo_) children.clear();
        queue_.clear();
        lca_timestamp_ = 0;
    }

    long long
    e_delta(const EdgeCell& e) const
    {
        return lab_[e.u] + lab_[e.v] - g(e.u, e.v).w * 2;
    }

    void
    update_slack(int u, int x)
    {
        if (!slack_[x] || e_delta(g(u, x)) < e_delta(g(slack_[x], x))) {
            slack_[x] = u;
        }
    }

    void
    set_slack(int x)
    {
        slack_[x] = 0;
        for (int u = 1; u <= n_; ++u) {
            if (g(u, x).w > 0 && st_[u] != x && s_[st_[u]] == 0) {
                update_slack(u, x);
            }
        }
    }

    void
    queue_push(int x)
    {
        if (x <= n_) {
            queue_.push_back(x);
        } else {
            for (int child : flo_[x]) queue_push(child);
        }
    }

    void
    set_st(int x, int b)
    {
        st_[x] = b;
        if (x > n_) {
            for (int child : flo_[x]) set_st(child, b);
        }
    }

    int
    get_pr(int b, int xr)
    {
        auto it = std::find(flo_[b].begin(), flo_[b].end(), xr);
        int pr = static_cast<int>(it - flo_[b].begin());
        if (pr % 2 == 1) {
            std::reverse(flo_[b].begin() + 1, flo_[b].end());
            return static_cast<int>(flo_[b].size()) - pr;
        }
        return pr;
    }

    void
    set_match(int u, int v)
    {
        match_[u] = g(u, v).v;
        if (u <= n_) return;
        const EdgeCell e = g(u, v);
        const int xr = flo_from(u, e.u);
        const int pr = get_pr(u, xr);
        for (int i = 0; i < pr; ++i) {
            set_match(flo_[u][i], flo_[u][i ^ 1]);
        }
        set_match(xr, v);
        std::rotate(flo_[u].begin(), flo_[u].begin() + pr, flo_[u].end());
    }

    void
    augment(int u, int v)
    {
        for (;;) {
            const int xnv = st_[match_[u]];
            set_match(u, v);
            if (!xnv) return;
            set_match(xnv, st_[pa_[xnv]]);
            u = st_[pa_[xnv]];
            v = xnv;
        }
    }

    int
    get_lca(int u, int v)
    {
        int& t = lca_timestamp_;
        for (++t; u || v; std::swap(u, v)) {
            if (u == 0) continue;
            if (vis_[u] == t) return u;
            vis_[u] = t;
            u = st_[match_[u]];
            if (u) u = st_[pa_[u]];
        }
        return 0;
    }

    void
    add_blossom(int u, int lca, int v)
    {
        int b = n_ + 1;
        while (b <= n_x_ && st_[b]) ++b;
        if (b > n_x_) ++n_x_;

        lab_[b] = 0;
        s_[b] = 0;
        match_[b] = match_[lca];
        flo_[b].clear();
        flo_[b].push_back(lca);
        for (int x = u, y; x != lca; x = st_[pa_[y]]) {
            flo_[b].push_back(x);
            y = st_[match_[x]];
            flo_[b].push_back(y);
            queue_push(y);
        }
        std::reverse(flo_[b].begin() + 1, flo_[b].end());
        for (int x = v, y; x != lca; x = st_[pa_[y]]) {
            flo_[b].push_back(x);
            y = st_[match_[x]];
            flo_[b].push_back(y);
            queue_push(y);
        }
        set_st(b, b);
        for (int x = 1; x <= n_x_; ++x) {
            g(b, x).w = g(x, b).w = 0;
        }
        for (int x = 1; x <= n_; ++x) flo_from(b, x) = 0;
        for (int xs : flo_[b]) {
            for (int x = 1; x <= n_x_; ++x) {
                if (g(b, x).w == 0 || e_delta(g(xs, x)) < e_delta(g(b, x))) {
                    g(b, x) = g(xs, x);
                    g(x, b) = g(x, xs);
                }
            }
            for (int x = 1; x <= n_; ++x) {
                if (flo_from(xs, x)) flo_from(b, x) = xs;
            }
        }
        set_slack(b);
    }

    void
    expand_blossom(int b)
    {
        for (int child : flo_[b]) set_st(child, child);

        const int xr = flo_from(b, g(b, pa_[b]).u);
        const int pr = get_pr(b, xr);
        for (int i = 0; i < pr; i += 2) {
            const int xs = flo_[b][i];
            const int xns = flo_[b][i + 1];
            pa_[xs] = g(xns, xs).u;
            s_[xs] = 1;
            s_[xns] = 0;
            slack_[xs] = 0;
            set_slack(xns);
            queue_push(xns);
        }
        s_[xr] = 1;
        pa_[xr] = pa_[b];
        for (std::size_t i = static_cast<std::size_t>(pr) + 1;
             i < flo_[b].size(); ++i) {
            const int xs = flo_[b][i];
            s_[xs] = -1;
            set_slack(xs);
        }
        st_[b] = 0;
    }

    bool
    on_found_edge(const EdgeCell& e)
    {
        const int u = st_[e.u];
        const int v = st_[e.v];
        if (s_[v] == -1) {
            pa_[v] = e.u;
            s_[v] = 1;
            const int nu = st_[match_[v]];
            slack_[v] = slack_[nu] = 0;
            s_[nu] = 0;
            queue_push(nu);
        } else if (s_[v] == 0) {
            const int lca = get_lca(u, v);
            if (!lca) {
                augment(u, v);
                augment(v, u);
                return true;
            }
            add_blossom(u, lca, v);
        }
        return false;
    }

    bool
    run_one_phase()
    {
        std::fill(s_.begin(), s_.begin() + n_x_ + 1, -1);
        std::fill(slack_.begin(), slack_.begin() + n_x_ + 1, 0);
        queue_.clear();
        for (int x = 1; x <= n_x_; ++x) {
            if (st_[x] == x && !match_[x]) {
                pa_[x] = 0;
                s_[x] = 0;
                queue_push(x);
            }
        }
        if (queue_.empty()) return false;

        for (;;) {
            while (!queue_.empty()) {
                const int u = queue_.front();
                queue_.pop_front();
                if (s_[st_[u]] == 1) continue;
                for (int v = 1; v <= n_; ++v) {
                    if (g(u, v).w > 0 && st_[u] != st_[v]) {
                        if (e_delta(g(u, v)) == 0) {
                            if (on_found_edge(g(u, v))) return true;
                        } else {
                            update_slack(u, st_[v]);
                        }
                    }
                }
            }

            // Dual adjustment: the largest feasible uniform change d.
            constexpr long long kInf = (1LL << 62);
            long long d = kInf;
            for (int b = n_ + 1; b <= n_x_; ++b) {
                if (st_[b] == b && s_[b] == 1) {
                    d = std::min(d, lab_[b] / 2);
                }
            }
            for (int x = 1; x <= n_x_; ++x) {
                if (st_[x] == x && slack_[x]) {
                    if (s_[x] == -1) {
                        d = std::min(d, e_delta(g(slack_[x], x)));
                    } else if (s_[x] == 0) {
                        d = std::min(d, e_delta(g(slack_[x], x)) / 2);
                    }
                }
            }
            for (int u = 1; u <= n_; ++u) {
                if (s_[st_[u]] == 0) d = std::min(d, lab_[u]);
            }
            if (d >= kInf) return false;

            for (int u = 1; u <= n_; ++u) {
                switch (s_[st_[u]]) {
                  case 0: lab_[u] -= d; break;
                  case 1: lab_[u] += d; break;
                  default: break;
                }
            }
            for (int b = n_ + 1; b <= n_x_; ++b) {
                if (st_[b] == b && s_[b] >= 0) {
                    lab_[b] += (s_[b] == 0 ? 2 * d : -2 * d);
                }
            }

            // If any free S-vertex reached a zero dual, the current
            // matching is maximum for this phase.
            for (int u = 1; u <= n_; ++u) {
                if (s_[st_[u]] == 0 && lab_[u] <= 0) return false;
            }

            for (int x = 1; x <= n_x_; ++x) {
                if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
                    e_delta(g(slack_[x], x)) == 0) {
                    if (on_found_edge(g(slack_[x], x))) return true;
                }
            }
            for (int b = n_ + 1; b <= n_x_; ++b) {
                if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) {
                    expand_blossom(b);
                }
            }
        }
    }
};


MatchingWorkspace::MatchingWorkspace() : solver_(std::make_unique<Solver>())
{
}

MatchingWorkspace::~MatchingWorkspace() = default;

MatchingResult
MatchingWorkspace::max_weight_matching(int num_nodes,
                                       const std::vector<WeightedEdge>& edges)
{
    CAQR_CHECK(num_nodes >= 0, "node count must be non-negative");
    if (num_nodes == 0) return MatchingResult{};
    return solver_->solve(num_nodes, edges);
}

MatchingResult
max_weight_matching(int num_nodes, const std::vector<WeightedEdge>& edges)
{
    return MatchingWorkspace().max_weight_matching(num_nodes, edges);
}

MatchingResult
greedy_matching(int num_nodes, const std::vector<WeightedEdge>& edges)
{
    CAQR_CHECK(num_nodes >= 0, "node count must be non-negative");
    std::vector<WeightedEdge> sorted = edges;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const WeightedEdge& a, const WeightedEdge& b) {
                         return a.weight > b.weight;
                     });
    MatchingResult result;
    result.mate.assign(static_cast<std::size_t>(num_nodes), -1);
    for (const auto& e : sorted) {
        if (e.weight <= 0 || e.u == e.v) continue;
        if (result.mate[e.u] < 0 && result.mate[e.v] < 0) {
            result.mate[e.u] = e.v;
            result.mate[e.v] = e.u;
            result.total_weight += e.weight;
            ++result.num_pairs;
        }
    }
    return result;
}

bool
is_valid_matching(int num_nodes, const std::vector<WeightedEdge>& edges,
                  const MatchingResult& result)
{
    if (static_cast<int>(result.mate.size()) != num_nodes) return false;
    for (int u = 0; u < num_nodes; ++u) {
        const int v = result.mate[u];
        if (v < 0) continue;
        if (v >= num_nodes || result.mate[v] != u || v == u) return false;
    }
    // Every matched pair must be backed by an input edge.
    for (int u = 0; u < num_nodes; ++u) {
        const int v = result.mate[u];
        if (v < u) continue;
        bool found = false;
        for (const auto& e : edges) {
            if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) {
                found = true;
                break;
            }
        }
        if (!found) return false;
    }
    return true;
}

}  // namespace caqr::graph
