/// \file event_golden_test.cpp
/// Absolute fixed-seed pins for the four event-driven protocols (async,
/// validated, sequential, multi), fault-free and under a loss + straggler
/// + crash plan, driven through api::run.
///
/// The other event pins are relative (thread sweeps, zero-rate plan vs no
/// plan, queue kinds): they hold for any trajectory, so a refactor that
/// shifts the random tape of every configuration alike passes them. These
/// pins catch that. Each case renders core::serialize(result.run) with
/// the plurality series folded into a point count plus an FNV-1a digest,
/// then every extras value as a hex float, and compares the text exactly.
///
/// Expected values were captured before the event simulations moved onto
/// the shared sim::EventEngine skeleton. One documented difference: the
/// validated engine now counts the signals its leader receives, so its
/// signals_delivered and leader_peak_load are no longer zero.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "core/run_result.hpp"

namespace papc::api {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::string hex(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

Scenario golden_scenario(const std::string& protocol, bool faulted) {
    Scenario s;
    s.protocol = protocol;
    s.n = 1024;
    s.k = 3;
    s.alpha = 1.8;
    s.max_time = 400.0;
    s.record_series = true;
    if (faulted) {
        s.threads = 2;
        s.fault_loss = 0.05;
        s.fault_straggler_frac = 0.1;
        s.fault_straggler_scale = 3.0;
        s.fault_crash_rate = 0.002;
        s.fault_recover_rate = 0.05;
    }
    return s;
}

/// The serialized run (series points folded into count + digest) followed
/// by every extras value in key order.
std::string render(const ScenarioResult& result) {
    std::istringstream lines(core::serialize(result.run));
    std::ostringstream out;
    std::uint64_t points = 0;
    std::uint64_t digest = kFnvOffset;
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("point ", 0) == 0) {
            ++points;
            for (const char c : line) {
                digest ^= static_cast<unsigned char>(c);
                digest *= kFnvPrime;
            }
            continue;
        }
        out << line << '\n';
    }
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    out << "points " << points << ' ' << digest_hex << '\n';
    for (const auto& [name, value] : result.extras) {
        out << name << ' ' << hex(value) << '\n';
    }
    return out.str();
}

struct GoldenCase {
    const char* protocol;
    bool faulted;
    std::uint64_t seed;
    const char* expected;
};

const GoldenCase kCases[] = {
    {"async", false, 101, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.3210b1efc33bep+6
consensus_time 0x1.6b57e310b8effp+6
end_time 0x1.6b57e310b8effp+6
steps 629
series plurality-fraction
points 362 e2e30d703c0936a0
byzantine_nodes 0x0p+0
channels_opened 0x1.3b42p+16
crash_skips 0x0p+0
events_processed 0x1.a6ef8p+17
exchanges 0x1.992cp+14
faults_injected 0x0p+0
final_top_generation 0x1.8p+2
good_ticks 0x1.a458p+14
leader_peak_load 0x1.238p+10
messages_corrupted 0x0p+0
messages_delayed 0x0p+0
messages_duplicated 0x0p+0
messages_lost 0x0p+0
nodes_crashed 0x0p+0
propagation 0x1.9dcp+10
refreshes 0x1.70ap+12
signals_delivered 0x1.7ad2p+16
steps_per_unit 0x1.25f2ad2039357p+3
ticks 0x1.6cc2p+16
two_choices 0x1.818p+11
window_stragglers 0x1.d2dp+12
windows 0x1.3a8p+9
)"},
    {"async", true, 102, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.49892d9baa02ap+6
consensus_time 0x1.dfe67b1232019p+6
end_time 0x1.dfe67b1232019p+6
steps 819
series plurality-fraction
points 479 d060fdf1c9d8bf09
byzantine_nodes 0x0p+0
channels_opened 0x1.95ffp+16
crash_skips 0x1.c46p+11
events_processed 0x1.0bbecp+18
exchanges 0x1.07c2p+15
faults_injected 0x1.5508p+14
final_top_generation 0x1.8p+2
good_ticks 0x1.0eaap+15
leader_peak_load 0x1.11cp+10
messages_corrupted 0x0p+0
messages_delayed 0x1.73ap+13
messages_duplicated 0x0p+0
messages_lost 0x1.8abp+12
nodes_crashed 0x1.0ep+9
propagation 0x1.cdcp+10
refreshes 0x1.aa2p+12
signals_delivered 0x1.c9dcp+16
steps_per_unit 0x1.22a6bc27b9ab1p+3
ticks 0x1.e0a2p+16
two_choices 0x1.ae8p+11
window_stragglers 0x1.07fp+13
windows 0x1.998p+9
)"},
    {"validated", false, 103, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.901c71594c992p+6
consensus_time 0x1.0ea5e66233c57p+7
end_time 0x1.0ea5e66233c57p+7
steps 728
series plurality-fraction
points 541 3ad207f08d75aeb8
abort_rate 0x1.6963cd250619dp-4
aborts 0x1.e5p+8
byzantine_nodes 0x0p+0
channels_opened 0x0p+0
commits 0x1.394p+12
crash_skips 0x0p+0
events_processed 0x1.325p+18
exchanges 0x1.b52p+14
faults_injected 0x0p+0
final_top_generation 0x1.8p+2
good_ticks 0x1.c03p+14
leader_peak_load 0x1.25cp+10
messages_corrupted 0x0p+0
messages_delayed 0x0p+0
messages_duplicated 0x0p+0
messages_lost 0x0p+0
nodes_crashed 0x0p+0
propagation 0x1.d94p+10
refreshes 0x1.d28p+12
signals_delivered 0x1.14ebp+17
steps_per_unit 0x1.3c92589b82be4p+3
ticks 0x1.0e548p+17
two_choices 0x1.85ep+11
window_stragglers 0x1.99cp+10
windows 0x1.6cp+9
)"},
    {"validated", true, 104, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.d210e03382b77p+6
consensus_time 0x1.34cb54f026437p+7
end_time 0x1.34cb54f026437p+7
steps 812
series plurality-fraction
points 617 f9c1d234a3f79b54
abort_rate 0x1.34554185511f8p-4
aborts 0x1.9fp+8
byzantine_nodes 0x0p+0
channels_opened 0x0p+0
commits 0x1.3eap+12
crash_skips 0x1.569p+12
events_processed 0x1.4f7acp+18
exchanges 0x1.e5dcp+14
faults_injected 0x1.b818p+14
final_top_generation 0x1.8p+2
good_ticks 0x1.f42p+14
leader_peak_load 0x1.06p+10
messages_corrupted 0x0p+0
messages_delayed 0x1.d488p+13
messages_duplicated 0x0p+0
messages_lost 0x1.e0cp+12
nodes_crashed 0x1.108p+9
propagation 0x1.d78p+10
refreshes 0x1.e85p+12
signals_delivered 0x1.21fp+17
steps_per_unit 0x1.3b976cc600993p+3
ticks 0x1.351a8p+17
two_choices 0x1.918p+11
window_stragglers 0x1.844p+10
windows 0x1.96p+9
)"},
    {"sequential", false, 105, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.e9908bf7009f5p+3
consensus_time 0x1.7149a50bcdaa4p+4
end_time 0x1.7149a50bcdaa4p+4
steps 92
series plurality-fraction
points 91 116c78393304027c
byzantine_nodes 0x0p+0
channels_opened 0x0p+0
crash_skips 0x0p+0
events_processed 0x1.735p+14
exchanges 0x1.735p+14
faults_injected 0x0p+0
final_top_generation 0x1.8p+2
good_ticks 0x1.735p+14
leader_peak_load 0x0p+0
messages_corrupted 0x0p+0
messages_delayed 0x0p+0
messages_duplicated 0x0p+0
messages_lost 0x0p+0
nodes_crashed 0x0p+0
propagation 0x1.8bap+11
refreshes 0x1.256p+13
signals_delivered 0x1.bcdcp+14
steps_per_unit 0x1p+0
ticks 0x1.735p+14
two_choices 0x1.818p+10
window_stragglers 0x0p+0
windows 0x1.7p+6
)"},
    {"sequential", true, 106, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.08e5ae29b9359p+4
consensus_time 0x1.492e6917554dap+5
end_time 0x1.492e6917554dap+5
steps 164
series plurality-fraction
points 164 e52286ef5abee811
byzantine_nodes 0x0p+0
channels_opened 0x0p+0
crash_skips 0x1.bd8p+9
events_processed 0x1.4afap+15
exchanges 0x1.4404p+15
faults_injected 0x1.91ap+11
final_top_generation 0x1.8p+2
good_ticks 0x1.4404p+15
leader_peak_load 0x0p+0
messages_corrupted 0x0p+0
messages_delayed 0x0p+0
messages_duplicated 0x0p+0
messages_lost 0x1.224p+11
nodes_crashed 0x1.148p+9
propagation 0x1.8cp+11
refreshes 0x1.289p+13
signals_delivered 0x1.57bcp+15
steps_per_unit 0x1p+0
ticks 0x1.4afap+15
two_choices 0x1.a38p+10
window_stragglers 0x0p+0
windows 0x1.48p+7
)"},
    {"multi", false, 107, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.b07a7ad594eaep+6
consensus_time 0x1.c40e490c02033p+6
end_time 0x1.c40e490c02033p+6
steps 789
series plurality-fraction
points 452 9d667fd7cf23ac0d
active_clusters 0x1.8p+3
byzantine_nodes 0x0p+0
clustering_time 0x1.fa88b71a2b239p+3
crash_skips 0x0p+0
events_processed 0x1.0ce7p+18
exchanges 0x1.9cc8p+14
faults_injected 0x0p+0
final_top_generation 0x1.8p+2
finished_adoptions 0x1.d58p+9
finished_fraction 0x1.ffp-1
fraction_clustered 0x1.e1p-1
leader_peak_load 0x1.d4p+7
messages_corrupted 0x0p+0
messages_delayed 0x0p+0
messages_duplicated 0x0p+0
messages_lost 0x0p+0
nodes_crashed 0x0p+0
propagation 0x1.8bp+10
signals_delivered 0x1.fcccp+16
ticks 0x1.c518p+16
total_time 0x1.01afaff7a3b3dp+7
two_choices 0x1.21p+11
window_stragglers 0x1.714p+13
windows 0x1.8a8p+9
)"},
    {"multi", true, 108, R"(
converged 1
winner 0
plurality_won 1
epsilon_time 0x1.0798a93ae31f6p+7
consensus_time 0x1.3781e520a3201p+7
end_time 0x1.3781e520a3201p+7
steps 1095
series plurality-fraction
points 622 7a375021ab59a0ee
active_clusters 0x1p+3
byzantine_nodes 0x0p+0
clustering_time 0x1.0926dad4a9953p+4
crash_skips 0x1.911p+12
events_processed 0x1.6a538p+18
exchanges 0x1.114cp+15
faults_injected 0x1.0592p+15
final_top_generation 0x1.8p+2
finished_adoptions 0x1.c5p+9
finished_fraction 0x1.f8p-1
fraction_clustered 0x1.e38p-1
leader_peak_load 0x1.32p+8
messages_corrupted 0x0p+0
messages_delayed 0x1.13fp+14
messages_duplicated 0x0p+0
messages_lost 0x1.25ep+13
nodes_crashed 0x1.29p+9
propagation 0x1.66p+10
signals_delivered 0x1.3b4dp+17
ticks 0x1.37cp+17
total_time 0x1.58a6c07b3852bp+7
two_choices 0x1.474p+11
window_stragglers 0x1.796p+14
windows 0x1.11cp+10
)"},
};

TEST(EventGolden, EveryEventProtocolReproducesItsPinnedRun) {
    for (const GoldenCase& c : kCases) {
        const Scenario s = golden_scenario(c.protocol, c.faulted);
        ASSERT_TRUE(ProtocolRegistry::instance().check(s).empty())
            << c.protocol;
        const std::string actual = "\n" + render(run(s, c.seed));
        EXPECT_EQ(actual, c.expected)
            << c.protocol << (c.faulted ? " (faulted)" : " (fault-free)");
    }
}

}  // namespace
}  // namespace papc::api
