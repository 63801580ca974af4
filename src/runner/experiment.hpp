#pragma once

/// \file experiment.hpp
/// Repetition harness: runs a seeded trial function `reps` times with
/// derived per-trial seeds and aggregates named metrics.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/run_result.hpp"
#include "support/json_writer.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace papc::runner {

/// Metrics reported by one trial: name -> value. Missing metrics in some
/// trials are allowed (e.g. "consensus_time" only when converged).
using TrialMetrics = std::map<std::string, double>;

/// One trial: receives the derived seed, returns its metrics.
using TrialFn = std::function<TrialMetrics(std::uint64_t seed)>;

/// Aggregated metrics over all repetitions.
struct ExperimentOutcome {
    std::size_t repetitions = 0;
    std::map<std::string, Summary> metrics;

    /// Mean of a metric (0 if absent).
    [[nodiscard]] double mean(const std::string& name) const;
    /// Median of a metric (0 if absent).
    [[nodiscard]] double median(const std::string& name) const;
    /// Number of trials that reported the metric.
    [[nodiscard]] std::size_t count(const std::string& name) const;
};

/// Runs `trial` `reps` times with seeds derived from `base_seed`, over
/// `threads` worker threads (1 = serially on the calling thread). With
/// threads > 1 the trial function must be thread-safe (all papc
/// simulations are: they share no mutable state and derive their
/// randomness from the per-trial seed). The outcome is identical at any
/// thread count — per-trial seeds do not depend on scheduling.
[[nodiscard]] ExperimentOutcome run_experiment(const TrialFn& trial,
                                               std::size_t reps,
                                               std::uint64_t base_seed,
                                               std::size_t threads = 1);

/// Standard metrics of a unified core::RunResult: "converged",
/// "plurality_won", "steps" and "end_time" are always present;
/// "epsilon_time" and "consensus_time" only when the threshold was reached
/// (so their aggregates summarize converged trials only).
[[nodiscard]] TrialMetrics metrics_from(const core::RunResult& result);

/// Emits the aggregated outcome as one JSON object:
/// {"repetitions": R, "metrics": {name: {count, mean, stddev, min, max,
/// p10, p50, p90, p99}, ...}}. Metric order follows the map (sorted).
void write_json(JsonWriter& writer, const ExperimentOutcome& outcome);

}  // namespace papc::runner
