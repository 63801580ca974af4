#include "runner/experiment.hpp"

#include <gtest/gtest.h>

#include <set>

namespace papc::runner {
namespace {

TEST(RunExperiment, AggregatesAllRepetitions) {
    int calls = 0;
    const ExperimentOutcome o = run_experiment(
        [&](std::uint64_t) {
            ++calls;
            return TrialMetrics{{"x", static_cast<double>(calls)}};
        },
        10, 42);
    EXPECT_EQ(calls, 10);
    EXPECT_EQ(o.repetitions, 10U);
    EXPECT_EQ(o.count("x"), 10U);
    EXPECT_DOUBLE_EQ(o.mean("x"), 5.5);
    EXPECT_DOUBLE_EQ(o.median("x"), 5.5);
}

TEST(RunExperiment, SeedsAreDistinctAndDeterministic) {
    std::set<std::uint64_t> seeds1;
    std::set<std::uint64_t> seeds2;
    (void)run_experiment(
        [&](std::uint64_t s) {
            seeds1.insert(s);
            return TrialMetrics{};
        },
        8, 7);
    (void)run_experiment(
        [&](std::uint64_t s) {
            seeds2.insert(s);
            return TrialMetrics{};
        },
        8, 7);
    EXPECT_EQ(seeds1.size(), 8U);
    EXPECT_EQ(seeds1, seeds2);
}

TEST(RunExperiment, MissingMetricsAllowed) {
    const ExperimentOutcome o = run_experiment(
        [](std::uint64_t seed) {
            TrialMetrics m{{"always", 1.0}};
            if (seed % 2 == 0) m["sometimes"] = 2.0;
            return m;
        },
        20, 99);
    EXPECT_EQ(o.count("always"), 20U);
    EXPECT_GT(o.count("sometimes"), 0U);
    EXPECT_LT(o.count("sometimes"), 20U);
    EXPECT_EQ(o.count("never"), 0U);
    EXPECT_DOUBLE_EQ(o.mean("never"), 0.0);
}

TEST(RunExperimentThreaded, MatchesSerialOutcome) {
    auto trial = [](std::uint64_t seed) {
        // Deterministic function of the seed only.
        return TrialMetrics{{"v", static_cast<double>(seed % 1000)},
                            {"w", static_cast<double>(seed % 7)}};
    };
    const ExperimentOutcome serial = run_experiment(trial, 40, 11);
    const ExperimentOutcome parallel = run_experiment(trial, 40, 11, 4);
    ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
    for (const auto& [name, summary] : serial.metrics) {
        const auto& other = parallel.metrics.at(name);
        EXPECT_EQ(summary.count, other.count) << name;
        EXPECT_DOUBLE_EQ(summary.mean, other.mean) << name;
        EXPECT_DOUBLE_EQ(summary.p50, other.p50) << name;
        EXPECT_DOUBLE_EQ(summary.min, other.min) << name;
        EXPECT_DOUBLE_EQ(summary.max, other.max) << name;
    }
}

TEST(RunExperimentThreaded, SingleThreadDegeneratesToSerial) {
    int calls = 0;
    const ExperimentOutcome o = run_experiment(
        [&](std::uint64_t) {
            ++calls;
            return TrialMetrics{{"x", 1.0}};
        },
        5, 3, 1);
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(o.count("x"), 5U);
}

TEST(RunExperimentThreaded, MoreThreadsThanRepsIsSafe) {
    const ExperimentOutcome o = run_experiment(
        [](std::uint64_t s) {
            return TrialMetrics{{"x", static_cast<double>(s % 5)}};
        },
        3, 9, 16);
    EXPECT_EQ(o.repetitions, 3U);
}

TEST(RunExperiment, SummariesCarryDistributionShape) {
    const ExperimentOutcome o = run_experiment(
        [](std::uint64_t seed) {
            return TrialMetrics{{"v", static_cast<double>(seed % 100)}};
        },
        50, 3);
    const auto& s = o.metrics.at("v");
    EXPECT_EQ(s.count, 50U);
    EXPECT_LE(s.min, s.p50);
    EXPECT_LE(s.p50, s.max);
}

}  // namespace
}  // namespace papc::runner
