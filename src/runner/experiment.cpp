#include "runner/experiment.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace papc::runner {

double ExperimentOutcome::mean(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.mean;
}

double ExperimentOutcome::median(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.p50;
}

std::size_t ExperimentOutcome::count(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second.count;
}

namespace {

ExperimentOutcome aggregate(std::vector<TrialMetrics> per_trial) {
    std::map<std::string, std::vector<double>> samples;
    for (const TrialMetrics& metrics : per_trial) {
        for (const auto& [name, value] : metrics) {
            samples[name].push_back(value);
        }
    }
    ExperimentOutcome outcome;
    outcome.repetitions = per_trial.size();
    for (auto& [name, values] : samples) {
        outcome.metrics[name] = summarize(std::move(values));
    }
    return outcome;
}

}  // namespace

ExperimentOutcome run_experiment(const TrialFn& trial, std::size_t reps,
                                 std::uint64_t base_seed,
                                 std::size_t threads) {
    PAPC_CHECK(reps > 0);
    PAPC_CHECK(threads >= 1);
    std::vector<TrialMetrics> per_trial(reps);
    // Trial r writes only per_trial[r] and seeds derive from (base, r),
    // so results are identical at any thread count regardless of which
    // pool worker runs which trial. A one-thread pool starts no workers
    // and runs the trials in order on the calling thread.
    support::ThreadPool pool(std::min(threads, reps));
    pool.parallel_for(reps, [&](std::size_t r, std::size_t /*worker*/) {
        per_trial[r] = trial(derive_seed(base_seed, r));
    });
    return aggregate(std::move(per_trial));
}

TrialMetrics metrics_from(const core::RunResult& result) {
    TrialMetrics metrics;
    metrics["converged"] = result.converged ? 1.0 : 0.0;
    metrics["plurality_won"] = result.plurality_won ? 1.0 : 0.0;
    metrics["steps"] = static_cast<double>(result.steps);
    metrics["end_time"] = result.end_time;
    if (result.epsilon_time >= 0.0) metrics["epsilon_time"] = result.epsilon_time;
    if (result.consensus_time >= 0.0) {
        metrics["consensus_time"] = result.consensus_time;
    }
    return metrics;
}

void write_json(JsonWriter& writer, const ExperimentOutcome& outcome) {
    writer.begin_object();
    writer.kv("repetitions", static_cast<std::uint64_t>(outcome.repetitions));
    writer.key("metrics");
    writer.begin_object();
    for (const auto& [name, summary] : outcome.metrics) {
        writer.key(name);
        writer.begin_object();
        writer.kv("count", static_cast<std::uint64_t>(summary.count));
        writer.kv("mean", summary.mean);
        writer.kv("stddev", summary.stddev);
        writer.kv("min", summary.min);
        writer.kv("max", summary.max);
        writer.kv("p10", summary.p10);
        writer.kv("p50", summary.p50);
        writer.kv("p90", summary.p90);
        writer.kv("p99", summary.p99);
        writer.end_object();
    }
    writer.end_object();
    writer.end_object();
}

}  // namespace papc::runner
