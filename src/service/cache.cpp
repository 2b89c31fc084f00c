#include "service/cache.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "qasm/parser.h"
#include "qasm/printer.h"

namespace caqr {

namespace {

std::string
fmt_double(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

std::string
opt(const std::string& key, const std::string& value)
{
    return key + "=" + value;
}

std::string
opt(const std::string& key, double value)
{
    return key + "=" + fmt_double(value);
}

std::string
opt(const std::string& key, long long value)
{
    return key + "=" + std::to_string(value);
}

std::string
opt(const std::string& key, bool value)
{
    return key + (value ? "=1" : "=0");
}

/// Checks that @p request names exactly one input.
util::Status
check_single_input(const CompileRequest& request)
{
    const int provided = (request.circuit.has_value() ? 1 : 0) +
                         (request.qasm.empty() ? 0 : 1) +
                         (request.qasm_file.empty() ? 0 : 1) +
                         (request.commuting.has_value() ? 1 : 0);
    if (provided != 1) {
        return util::Status::invalid_argument(
            "request has no single input to address");
    }
    return {};
}

/// The QASM text of a textual input: the inline source or the file's
/// bytes.
util::StatusOr<std::string>
qasm_text(const CompileRequest& request)
{
    if (!request.qasm.empty()) return request.qasm;
    std::ifstream in(request.qasm_file, std::ios::binary);
    if (!in) {
        return util::Status::not_found("cannot read '" +
                                       request.qasm_file + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return util::Status::io_error("error reading '" +
                                      request.qasm_file + "'");
    }
    return buffer.str();
}

/// Writes the interaction graph's edges by identity, not insertion
/// order: the same graph assembled in a different order hashes equal.
void
write_sorted_edges(std::ostream& os, const core::CommutingSpec& spec)
{
    std::vector<std::pair<int, int>> edges = spec.interaction.edges();
    for (auto& [u, v] : edges) {
        if (u > v) std::swap(u, v);
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [u, v] : edges) {
        os << "edge " << u << ' ' << v << '\n';
    }
}

/// Serializes the request's input as content, not identity: file
/// inputs are read, circuits printed, commuting specs flattened.
util::StatusOr<std::string>
input_content(const CompileRequest& request)
{
    if (auto status = check_single_input(request); !status.ok()) {
        return status;
    }
    if (request.commuting.has_value()) {
        const auto& spec = *request.commuting;
        std::ostringstream os;
        os << "commuting nodes=" << spec.interaction.num_nodes()
           << " layers=" << spec.layers
           << " symbolic=" << (spec.symbolic ? 1 : 0)
           << " gamma=" << fmt_double(spec.gamma)
           << " beta=" << fmt_double(spec.beta) << '\n';
        for (double gamma : spec.gammas) {
            os << "gamma_layer=" << fmt_double(gamma) << '\n';
        }
        for (double beta : spec.betas) {
            os << "beta_layer=" << fmt_double(beta) << '\n';
        }
        write_sorted_edges(os, spec);
        return os.str();
    }
    if (request.circuit.has_value()) {
        return qasm::to_qasm(*request.circuit);
    }
    return qasm_text(request);
}

/// Serializes the request's input by structure, masking bound values:
/// circuits print parameter names, commuting specs drop their angles.
util::StatusOr<std::string>
input_skeleton(const CompileRequest& request)
{
    if (auto status = check_single_input(request); !status.ok()) {
        return status;
    }
    if (request.commuting.has_value()) {
        const auto& spec = *request.commuting;
        std::ostringstream os;
        // Angles are the template's parameters; structure is the graph
        // and the layer count.
        os << "commuting nodes=" << spec.interaction.num_nodes()
           << " layers=" << spec.layers << '\n';
        write_sorted_edges(os, spec);
        return os.str();
    }
    if (request.circuit.has_value()) {
        return qasm::to_qasm_template(*request.circuit);
    }
    // Textual inputs are parsed so named parameters mask out — the raw
    // bytes differ per bound value, the template print does not.
    auto source = qasm_text(request);
    if (!source.ok()) return source.status();
    auto parsed = qasm::parse_circuit(*source);
    if (!parsed.ok()) return parsed.status();
    return qasm::to_qasm_template(*parsed);
}

/// The QS commuting search's result-affecting options. Its seed is
/// not among them: the search reads none. `num_threads` and `trace`
/// are execution knobs with a bit-identical result guarantee.
void
append_qs_commuting(std::vector<std::string>& lines,
                    const core::QsCommutingOptions& qsc)
{
    lines.push_back(opt("qsc.target_qubits",
                        static_cast<long long>(qsc.target_qubits)));
    lines.push_back(opt("qsc.max_candidates",
                        static_cast<long long>(qsc.max_candidates)));
    lines.push_back(opt(
        "qsc.exact_matching_limit",
        static_cast<long long>(qsc.scheduling.exact_matching_limit)));
    lines.push_back(opt(
        "qsc.reuse_priority_weight",
        static_cast<long long>(qsc.scheduling.reuse_priority_weight)));
}

/// The result-affecting option lines shared by `request_cache_key` and
/// `template_cache_key` — everything except the input serialization.
std::vector<std::string>
request_option_lines(const CompileRequest& request)
{
    std::vector<std::string> lines;
    lines.push_back(opt("strategy",
                        std::string(strategy_name(request.strategy))));
    const bool needs_backend = request.map_to_backend ||
                               request.strategy == Strategy::kSrCaqr;
    if (needs_backend) {
        // Collapse alias spellings; an unknown backend keeps its raw
        // spelling (the compile fails and failures are never cached).
        const auto canonical = canonical_backend_name(request.backend);
        lines.push_back(opt("backend", canonical.ok()
                                           ? *canonical
                                           : request.backend));
    }
    lines.push_back(opt("map_to_backend", request.map_to_backend));
    lines.push_back(opt("compute_esp", request.compute_esp));
    lines.push_back(opt("select_by_esp", request.select_by_esp));
    lines.push_back(opt("simulate", request.simulate));
    if (request.simulate) {
        lines.push_back(opt("sim.shots",
                            static_cast<long long>(request.sim.shots)));
        lines.push_back(opt("sim.seed",
                            static_cast<long long>(request.sim.seed)));
        // Fusion changes the floating-point association of gate
        // products, so counts can differ in the last ulp of a
        // measurement draw — it is an output-affecting knob. Thread
        // count is deliberately absent: per-shot RNG streams make
        // counts bit-identical at any num_threads.
        lines.push_back(opt("sim.fuse", request.sim.fuse_gates));
    }

    // Only the option struct the strategy actually consults reaches
    // the key — flipping an SR knob must not split QS entries.
    switch (request.strategy) {
      case Strategy::kBaseline:
        break;
      case Strategy::kQsCaqr:
        // QS-CaQR reads no seed, so `qs.seed` would only split entries.
        lines.push_back(opt("qs.target_qubits",
                            static_cast<long long>(
                                request.qs.target_qubits)));
        lines.push_back(opt(
            "qs.metric",
            std::string(request.qs.metric == core::ReuseMetric::kDepth
                            ? "depth"
                            : "duration")));
        break;
      case Strategy::kQsCommuting:
        append_qs_commuting(lines, request.qs_commuting);
        break;
      case Strategy::kSrCaqr:
        // A commuting workload runs the QS commuting search first and
        // SR-CaQR over each of its levels.
        if (request.commuting.has_value()) {
            append_qs_commuting(lines, request.qs_commuting);
        }
        lines.push_back(opt("sr.seed",
                            static_cast<long long>(request.sr.seed)));
        lines.push_back(opt("sr.error_aware", request.sr.error_aware));
        lines.push_back(opt("sr.lookahead_weight",
                            request.sr.lookahead_weight));
        lines.push_back(opt("sr.swap_lookahead_weight",
                            request.sr.swap_lookahead_weight));
        lines.push_back(opt("sr.trials",
                            static_cast<long long>(request.sr.trials)));
        lines.push_back(opt("sr.placement_pull",
                            request.sr.placement_pull));
        lines.push_back(opt("sr.jitter", request.sr.jitter));
        lines.push_back(opt("sr.jitter_stream",
                            static_cast<long long>(
                                request.sr.jitter_stream)));
        lines.push_back(opt("sr.delay_noncritical",
                            request.sr.delay_noncritical));
        break;
    }
    if (request.strategy != Strategy::kSrCaqr && request.map_to_backend) {
        const auto& tr = request.transpile;
        lines.push_back(opt("transpile.seed",
                            static_cast<long long>(tr.seed)));
        lines.push_back(opt("transpile.keep_rzz", tr.keep_rzz));
        lines.push_back(opt("transpile.trials",
                            static_cast<long long>(tr.trials)));
        lines.push_back(opt("transpile.layout_refine_passes",
                            static_cast<long long>(
                                tr.layout_refine_passes)));
        lines.push_back(opt("transpile.peephole", tr.peephole));
        lines.push_back(opt("router.lookahead_weight",
                            tr.router.lookahead_weight));
        lines.push_back(opt("router.lookahead_size",
                            static_cast<long long>(
                                tr.router.lookahead_size)));
        lines.push_back(opt("router.decay_delta",
                            tr.router.decay_delta));
        lines.push_back(opt("router.decay_reset_interval",
                            static_cast<long long>(
                                tr.router.decay_reset_interval)));
        lines.push_back(opt("router.error_aware",
                            tr.router.error_aware));
        lines.push_back(opt("router.stall_escape_after",
                            static_cast<long long>(
                                tr.router.stall_escape_after)));
    }
    return lines;
}

}  // namespace

std::string
canonicalize_option_lines(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto& line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

util::StatusOr<std::string>
request_cache_key(const CompileRequest& request)
{
    auto content = input_content(request);
    if (!content.ok()) return content.status();
    return "caqr-cache-v1\n" +
           canonicalize_option_lines(request_option_lines(request)) +
           "---input---\n" + *content;
}

util::StatusOr<std::string>
template_cache_key(const CompileRequest& request)
{
    auto skeleton = input_skeleton(request);
    if (!skeleton.ok()) return skeleton.status();
    return "caqr-template-v1\n" +
           canonicalize_option_lines(request_option_lines(request)) +
           "---skeleton---\n" + *skeleton;
}

}  // namespace caqr
