/**
 * @file
 * Options shared by every compiler pass.
 *
 * The pass-specific option structs (`QsCaqrOptions`,
 * `QsCommutingOptions`, `SrCaqrOptions`, `TranspileOptions`) embed
 * `CommonOptions` as a base, so the knobs every pass understands —
 * parallelism, heuristic seed, trace opt-out — are declared
 * exactly once and cannot drift between passes. Call sites keep
 * writing `options.num_threads = 4;` as before.
 */
#ifndef CAQR_UTIL_OPTIONS_H
#define CAQR_UTIL_OPTIONS_H

#include <cstdint>

namespace caqr::util {
class ThreadPool;
}  // namespace caqr::util

namespace caqr {

/// Knobs common to all passes; embedded as a base by each pass's
/// options struct.
struct CommonOptions
{
    /// Parallel sections of the pass: 1 = serial, anything else (the
    /// default 0 included) = on `pool`. Pools are sized where they are
    /// built, not here. Every pass guarantees bit-identical results for
    /// any value.
    int num_threads = 0;
    /// Seed for heuristic perturbations (e.g. layout-trial shuffles).
    /// The default reproduces the historical hard-coded behavior.
    std::uint64_t seed = 0xCA0Full;
    /// When false, the pass records nothing into `util::trace` even if
    /// tracing is globally enabled (per-request observability opt-out).
    bool trace = true;
    /// Borrowed worker pool for the pass's parallel sections (see
    /// `util::FanOut`); a pool without workers runs them serially.
    /// Null = the process-wide `util::ThreadPool::shared()`. The
    /// service sets this to its own pool so every fan-out of a request
    /// shares its workers. Never part of cache keys; results are
    /// bit-identical with or without it.
    util::ThreadPool* pool = nullptr;
};

}  // namespace caqr

#endif  // CAQR_UTIL_OPTIONS_H
