/**
 * @file
 * The benchmark program: one workload per run.
 *
 *   caqr_bench --workload reuse_wide|paper_mix|shots|serve_mix
 *              --seed N --seconds S --trace 0|1
 *              [--holdout-seed N] [--root DIR] [--out-dir DIR]
 *              [--git-sha SHA]
 *
 * Prints a `# header` line (seeds, hardware threads, pool sizes, build
 * type, git sha), `# detail` lines, any `# error` lines, and as the
 * last line one JSON object {correct, attempted, failed, metrics}:
 * end-to-end metrics for --trace 0, per-layer metrics for --trace 1.
 * Exits 1 when any output was wrong (or a request failed other than by
 * an overload refusal), 2 on bad arguments.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace caqrbench;

#ifndef CAQR_BENCH_BUILD_TYPE
#define CAQR_BENCH_BUILD_TYPE "unknown"
#endif

bool
parse_args(int argc, char** argv, Args* args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                args->workload = value;
            } else if (key == "--seed") {
                args->seed = std::stoull(value);
            } else if (key == "--holdout-seed") {
                args->holdout_seed = std::stoull(value);
            } else if (key == "--seconds") {
                args->seconds = std::stod(value);
            } else if (key == "--trace") {
                args->trace = value != "0";
            } else if (key == "--root") {
                args->root = value;
            } else if (key == "--out-dir") {
                args->out_dir = value;
            } else if (key == "--git-sha") {
                args->git_sha = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    if (argc % 2 == 0 || args->seconds <= 0.0) return false;
    return args->workload == "reuse_wide" || args->workload == "paper_mix" ||
           args->workload == "shots" || args->workload == "serve_mix";
}

std::string
json_escape(const std::string& text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: caqr_bench --workload reuse_wide|paper_mix|shots|serve_mix "
                     "--seed N --seconds S --trace 0|1 [--holdout-seed N] [--root DIR] "
                     "[--out-dir DIR] [--git-sha SHA]\n");
        return 2;
    }
    if (args.holdout_seed == 0) args.holdout_seed = args.seed ^ 0x5eed5eedull;
    if (args.out_dir.empty()) args.out_dir = args.root + "/.bench_build/out";
    std::filesystem::create_directories(args.out_dir);

    std::cout << "# header {\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
              << ",\"holdout_seed\":" << args.holdout_seed << ",\"seconds\":" << num(args.seconds)
              << ",\"trace\":" << (args.trace ? 1 : 0)
              << ",\"nproc\":" << std::thread::hardware_concurrency()
              << ",\"build_type\":\"" << CAQR_BENCH_BUILD_TYPE << "\",\"git_sha\":\""
              << json_escape(args.git_sha) << "\"}" << std::endl;

    const Outcome out =
        args.workload == "serve_mix" ? run_serve_mix(args) : run_closed_loop(args);

    for (const auto& line : out.details) std::cout << "# detail " << line << "\n";
    for (const auto& line : out.errors) std::cout << "# error " << line << "\n";
    for (const auto& metric : out.metrics) {
        std::cout << "# metric " << metric.name << " " << num(metric.value) << " " << metric.unit
                  << "\n";
    }
    // Refused requests count in `failed`; any wrong output, or a
    // request that failed for another reason, is an error line.
    const bool correct = out.errors.empty() && out.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const auto& metric = out.metrics[i];
        std::cout << (i == 0 ? "" : ", ") << "\"" << metric.name
                  << "\": {\"value\": " << num(metric.value) << ", \"unit\": \"" << metric.unit
                  << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
