#include <gtest/gtest.h>

#include "async/simulation.hpp"
#include "cluster/simulation.hpp"
#include "fault/plan.hpp"

namespace papc {
namespace {

// §4 motivation: the single leader is a single point of failure; the
// decentralized protocol tolerates losing a large fraction of its cluster
// leaders mid-run.

cluster::ClusterConfig multi_config() {
    cluster::ClusterConfig c;
    c.size_floor = 16;
    c.leader_probability = 1.0 / 64.0;
    c.alpha_hint = 2.0;
    c.max_time = 2000.0;
    c.record_series = false;
    return c;
}

TEST(Resilience, SingleLeaderFrozenEarlyStalls) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 250.0;
    c.record_series = false;
    // Frozen before the protocol finishes.
    c.fault.scheduled_crashes = {{fault::kLeaderNode, 5.0}};
    const async::AsyncResult r = async::run_single_leader(4096, 4, 2.0, c, 1);
    EXPECT_FALSE(r.converged);
    EXPECT_GE(r.end_time, 249.0);  // ran to the cap, stalled
}

TEST(Resilience, SingleLeaderFrozenLateMayStillFinish) {
    // Freezing after the last generation's propagation opened leaves the
    // final pull phase intact: with prop frozen at true the run finishes.
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 600.0;
    c.record_series = false;
    // Typically past the last birth.
    c.fault.scheduled_crashes = {{fault::kLeaderNode, 90.0}};
    const async::AsyncResult r = async::run_single_leader(2048, 2, 3.0, c, 2);
    // Either outcome is legal depending on where the freeze lands; the run
    // must terminate cleanly and never crash.
    EXPECT_LE(r.end_time, 601.0);
}

TEST(Resilience, MultiLeaderSurvivesHalfTheLeaders) {
    cluster::ClusterConfig c = multi_config();
    c.leader_failure_time = 15.0;
    c.leader_failure_fraction = 0.5;
    const cluster::MultiLeaderResult r =
        cluster::run_multi_leader(4096, 4, 2.0, c, 3);
    ASSERT_TRUE(r.clustering.completed);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.plurality_won);
}

TEST(Resilience, MultiLeaderSurvivesNinetyPercentCrash) {
    cluster::ClusterConfig c = multi_config();
    c.leader_failure_time = 15.0;
    c.leader_failure_fraction = 0.9;
    const cluster::MultiLeaderResult r =
        cluster::run_multi_leader(4096, 2, 2.5, c, 4);
    ASSERT_TRUE(r.clustering.completed);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.plurality_won);
}

TEST(Resilience, FailureSlowsButDoesNotCorrupt) {
    cluster::ClusterConfig healthy = multi_config();
    cluster::ClusterConfig damaged = multi_config();
    damaged.leader_failure_time = 10.0;
    damaged.leader_failure_fraction = 0.75;
    const cluster::MultiLeaderResult a =
        cluster::run_multi_leader(4096, 4, 2.0, healthy, 5);
    const cluster::MultiLeaderResult b =
        cluster::run_multi_leader(4096, 4, 2.0, damaged, 5);
    ASSERT_TRUE(a.converged);
    ASSERT_TRUE(b.converged);
    EXPECT_TRUE(b.plurality_won);
    EXPECT_GE(b.consensus_time, a.consensus_time * 0.5);  // sane ordering
}

TEST(Resilience, ZeroFractionIsNoOp) {
    cluster::ClusterConfig c = multi_config();
    c.leader_failure_time = 10.0;
    c.leader_failure_fraction = 0.0;
    const cluster::MultiLeaderResult with_injection =
        cluster::run_multi_leader(1024, 2, 2.0, c, 6);
    EXPECT_TRUE(with_injection.converged);
    EXPECT_TRUE(with_injection.plurality_won);
}

}  // namespace
}  // namespace papc
