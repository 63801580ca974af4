#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "async/simulation.hpp"
#include "cluster/simulation.hpp"
#include "core/run_result.hpp"

namespace papc::api {
namespace {

/// A scenario small enough that every family converges in well under a
/// second, yet large enough that the dynamics are non-trivial.
Scenario tiny_scenario(const std::string& protocol, std::uint32_t k) {
    Scenario s;
    s.protocol = protocol;
    // The multi-leader protocol needs enough nodes for clusters to reach
    // the derived participation floor; every other family is happy small.
    s.n = protocol == "multi" ? 1024 : 256;
    s.k = k;
    s.alpha = 2.5;
    s.max_time = 600.0;
    s.record_series = false;
    return s;
}

TEST(ProtocolRegistry, EveryProtocolRunsATinyScenarioToAValidResult) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::vector<std::string> names = registry.names();
    ASSERT_GE(names.size(), 12U);
    for (const std::string& name : names) {
        const ProtocolInfo* info = registry.find(name);
        ASSERT_NE(info, nullptr) << name;
        const Scenario scenario = tiny_scenario(name, info->min_k);
        ASSERT_TRUE(registry.check(scenario).empty()) << name;
        const ScenarioResult result = registry.run(scenario, 2020);
        EXPECT_TRUE(core::consistent(result.run)) << name;
        EXPECT_GT(result.run.steps, 0U) << name;
        EXPECT_GE(result.run.end_time, 0.0) << name;
        EXPECT_LT(result.run.winner, scenario.k) << name;
        // With bias 2.5 at n=256 every protocol here actually decides.
        EXPECT_TRUE(result.run.converged) << name;
    }
}

TEST(ProtocolRegistry, ExtrasMatchTheDeclaredMetadataExactly) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const std::string& name : registry.names()) {
        const ProtocolInfo* info = registry.find(name);
        const ScenarioResult result =
            registry.run(tiny_scenario(name, info->min_k), 7);
        std::set<std::string> declared(info->extra_metrics.begin(),
                                       info->extra_metrics.end());
        ASSERT_EQ(declared.size(), info->extra_metrics.size())
            << name << ": duplicate extra_metrics entry";
        std::set<std::string> produced;
        for (const auto& [metric, value] : result.extras) {
            (void)value;
            produced.insert(metric);
        }
        EXPECT_EQ(produced, declared) << name;
    }
}

TEST(ProtocolRegistry, NamesAreSortedAndFamiliesKnown) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::vector<std::string> names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    const std::set<std::string> families = {"sync", "population", "async",
                                            "cluster"};
    std::set<std::string> seen;
    for (const std::string& name : names) {
        seen.insert(registry.find(name)->family);
    }
    EXPECT_EQ(seen, families);  // every engine family is reachable
}

TEST(ProtocolRegistry, CheckRejectsUnknownProtocolAndBadK) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    Scenario s = tiny_scenario("does-not-exist", 2);
    EXPECT_FALSE(registry.check(s).empty());

    s = tiny_scenario("pp-3-state", 3);  // two-opinion protocol, k = 3
    const std::vector<std::string> problems = registry.check(s);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("requires k"), std::string::npos);

    // Inputs validate() accepts but the engines cannot run: the closed-form
    // generation count needs n > max(2, k), and clustering needs n >= 16.
    // Each is rejected with a message instead of aborting in the engine.
    struct Case {
        const char* protocol;
        std::size_t n;
        std::uint32_t k;
        const char* message;
    };
    for (const Case& c : {Case{"sync", 2, 2, "requires n > max(2, k)"},
                          Case{"async", 1000, 1000, "requires n > max(2, k)"},
                          Case{"multi", 8, 4, "requires n >= 16"}}) {
        s = tiny_scenario(c.protocol, c.k);
        s.n = c.n;
        ASSERT_TRUE(validate(s).empty()) << c.protocol;
        const std::vector<std::string> rejected = registry.check(s);
        ASSERT_FALSE(rejected.empty()) << c.protocol;
        EXPECT_NE(rejected.front().find(c.message), std::string::npos)
            << c.protocol << ": " << rejected.front();
    }
}

TEST(ProtocolRegistry, WrapperDoesNotPerturbTheAsyncRngStream) {
    // api::run("async") must be bit-identical to the direct engine call —
    // the API layer wraps, it must not re-derive seeds differently.
    Scenario s = tiny_scenario("async", 4);
    s.record_series = true;
    const ScenarioResult via_api = run(s, 99);

    async::AsyncConfig config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = true;
    config.queue_kind = s.queue_kind;
    const async::AsyncResult direct =
        async::run_single_leader(s.n, s.k, s.alpha, config, 99);

    EXPECT_EQ(core::serialize(via_api.run),
              core::serialize(static_cast<const core::RunResult&>(direct)));
    EXPECT_EQ(via_api.extras.at("exchanges"),
              static_cast<double>(direct.exchanges));
    EXPECT_EQ(via_api.extras.at("steps_per_unit"), direct.steps_per_unit);
}

TEST(ProtocolRegistry, WrapperDoesNotPerturbTheClusterRngStream) {
    Scenario s = tiny_scenario("multi", 3);
    const ScenarioResult via_api = run(s, 41);

    cluster::ClusterConfig config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = false;
    config.queue_kind = s.queue_kind;
    const cluster::MultiLeaderResult direct =
        cluster::run_multi_leader(s.n, s.k, s.alpha, config, 41);

    EXPECT_EQ(core::serialize(via_api.run),
              core::serialize(static_cast<const core::RunResult&>(direct)));
    EXPECT_EQ(via_api.extras.at("clustering_time"), direct.clustering_time);
}

TEST(ProtocolRegistry, SameSeedSameResultAcrossCalls) {
    const Scenario s = tiny_scenario("validated", 3);
    const ScenarioResult a = run(s, 5);
    const ScenarioResult b = run(s, 5);
    EXPECT_EQ(core::serialize(a.run), core::serialize(b.run));
    EXPECT_EQ(a.extras, b.extras);
}

TEST(ProtocolRegistry, WorkloadsFlowThroughToTheEngines) {
    // A uniform workload (alpha irrelevant) must behave differently from
    // the biased default and still produce a consistent result.
    Scenario s = tiny_scenario("two-choices", 4);
    s.workload = Workload::kUniform;
    const ScenarioResult r = run(s, 11);
    EXPECT_TRUE(core::consistent(r.run));
    Scenario z = tiny_scenario("pp-undecided", 4);
    z.workload = Workload::kZipf;
    const ScenarioResult rz = run(z, 11);
    EXPECT_TRUE(core::consistent(rz.run));
}

TEST(ProtocolRegistry, CustomProtocolsCanRegister) {
    ProtocolRegistry& registry = ProtocolRegistry::instance();
    if (registry.find("test-custom") == nullptr) {
        ProtocolInfo info;
        info.name = "test-custom";
        info.family = "sync";
        info.description = "registration test stub";
        info.extra_metrics = {"answer"};
        registry.register_protocol(
            info, [](const Scenario&, std::uint64_t) {
                ScenarioResult out;
                out.run.converged = true;
                out.run.steps = 1;
                out.extras = {{"answer", 42.0}};
                return out;
            });
    }
    Scenario s = tiny_scenario("test-custom", 2);
    const ScenarioResult r = run(s, 1);
    EXPECT_EQ(r.extras.at("answer"), 42.0);
}

}  // namespace
}  // namespace papc::api
