/**
 * @file
 * Seeded inputs and the output-correctness oracle.
 *
 * Every input is generated here from the run's seed; the library only
 * ever sees the generated circuits. Each input carries a reference that
 * does not come from the compiler: the known outcome of BV, CC and XOR
 * (from the secret that built them), or the exact output distribution
 * of the uncompiled input.
 */
#ifndef CAQRBENCH_WORKLOADS_H
#define CAQRBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "service/service.h"
#include "util/rng.h"

namespace caqrbench {

/// One distinct request of a workload plus its independent reference.
struct Job
{
    std::string name;
    caqr::CompileRequest request;
    int width = 0;
    /// Deterministic outcome (BV/CC/XOR); empty when the reference is
    /// the exact distribution of `input`.
    std::string expected;
    /// The uncompiled circuit: parsed for file inputs, materialized
    /// QAOA for commuting inputs.
    caqr::circuit::Circuit input{0, 0};
};

/// Seeded Fisher–Yates shuffle.
template <typename T>
void
shuffle(std::vector<T>& items, caqr::util::Rng& rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.next_below(i)]);
    }
}

/// Random bit vector of length @p n with exactly @p ones set. A fixed
/// weight keeps the work per input independent of the seed.
std::vector<int> fixed_weight_bits(int n, int ones, caqr::util::Rng& rng);

/// Seeded BV / CC / XOR-parity jobs of @p width qubits (inline QASM).
Job bv_job(int width, caqr::util::Rng& rng);
Job cc_job(int width, caqr::util::Rng& rng);
Job xor_job(int width, caqr::util::Rng& rng);

/// A paper circuit read from `<root>/circuits/<stem>.qasm`.
Job file_job(const std::string& root, const std::string& stem);

/// Erdős–Rényi G(n, m) max-cut QAOA job (depth 1) with m edges.
Job qaoa_job(int nodes, int edges, caqr::util::Rng& rng);

/// Two-qubit gate count of @p circuit with each SWAP counted as its
/// three CX.
int cx_count(const caqr::circuit::Circuit& circuit);

/**
 * Checks @p report — the compiled output of @p job — against the job's
 * reference: the mapped circuit must pass `transpile::verify_circuit`
 * on @p backend (when mapped); BV/CC/XOR must reproduce their expected
 * string on every ideal shot; other circuits must stay within the
 * sampling bound of the input's exact distribution (whole-register TVD
 * for small supports, one- and two-bit marginals otherwise). Returns
 * an empty string when the output is correct, else what is wrong.
 */
std::string check_output(const Job& job, const caqr::CompileReport& report,
                         const caqr::arch::Backend* backend);

/**
 * Ideal simulation throughput over a set of circuits, for workloads
 * whose requests do not simulate. Each round simulates every circuit
 * once on the library's default of one simulator thread and times it.
 * A circuit's shot count is fixed from its size (about 4M amplitude
 * updates, 16 to 2048 shots), so no circuit dominates a round. The
 * rate is the geometric mean over circuits
 * of shots per second at each circuit's median time, so one slow
 * circuit does not set it and one stalled round does not move it.
 * Closed loops run one round after each timed pass, so the probe sees
 * the same host conditions as the requests.
 */
class SimProbe
{
  public:
    /// Least number of rounds a run takes before reading the rate.
    static constexpr std::size_t kMinRounds = 5;

    explicit SimProbe(std::vector<caqr::circuit::Circuit> circuits);

    void round();
    std::size_t rounds() const { return rounds_; }
    double shots_per_s() const;

  private:
    std::vector<caqr::circuit::Circuit> circuits_;
    std::vector<std::size_t> shots_;       ///< per circuit
    std::vector<std::vector<double>> ms_;  ///< per circuit, per round
    std::size_t rounds_ = 0;
};

}  // namespace caqrbench

#endif  // CAQRBENCH_WORKLOADS_H
