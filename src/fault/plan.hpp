#pragma once

/// \file plan.hpp
/// Declarative fault & adversary configuration (ROADMAP item 2).
///
/// A FaultPlan is a plain value describing which faults a run should
/// suffer: message loss / duplication / corruption rates, heavy-tailed
/// straggler delay inflation, memoryless crash + recover schedules, an
/// explicit crash timetable, and a Byzantine node set with a reporting
/// policy. The plan itself contains no randomness — fault::Injector
/// turns a plan into concrete, deterministic fault decisions, every one
/// drawn from an `Rng::substream` labeled by (window/round, shard,
/// fault-channel). The plan is part of a run's trajectory identity: two
/// runs reproduce each other only with equal plans, and a plan with
/// every rate at zero is byte-identical to no plan at all (pinned by
/// tests/fault/).

#include <cstdint>
#include <string>
#include <vector>

#include "opinion/types.hpp"

namespace papc::fault {

/// How a Byzantine node answers when another node samples it.
enum class ByzantinePolicy : std::uint8_t {
    kFixed,     ///< always report opinion k-1 (a fixed non-plurality color)
    kRandom,    ///< report a fresh uniform opinion per round/report
    kAdaptive,  ///< report the strongest minority (runner-up) opinion
};

[[nodiscard]] const char* to_string(ByzantinePolicy policy);

/// Parses "fixed" / "random" / "adaptive"; returns false on anything else.
[[nodiscard]] bool try_parse_byzantine_policy(const std::string& text,
                                              ByzantinePolicy* out);

/// CrashEntry::node value addressing the protocol's distinguished leader
/// (single-leader family) instead of an ordinary node.
inline constexpr NodeId kLeaderNode = 0xFFFFFFFFU;

/// One scheduled, permanent crash: `node` is down for all t >= time.
struct CrashEntry {
    NodeId node = 0;
    double time = 0.0;
};

/// Everything the injector needs to know. All rates are per-decision
/// probabilities in [0, 1] except crash_rate / recover_rate, which are
/// exponential rates per time unit (sync/population families measure
/// time in rounds / interactions-per-node).
struct FaultPlan {
    double loss = 0.0;         ///< P(message silently dropped)
    double duplication = 0.0;  ///< P(message delivered twice)
    double corruption = 0.0;   ///< P(payload corrupted in flight)
    double crash_rate = 0.0;   ///< per-node Exp rate of crashing
    double recover_rate = 0.0; ///< per-node Exp rate of recovering (0 = never)
    double straggler_fraction = 0.0;  ///< P(message is a straggler)
    double straggler_scale = 1.0;     ///< latency-multiplier scale (>= 0)
    double byzantine_fraction = 0.0;  ///< P(node is Byzantine), drawn once
    ByzantinePolicy byzantine_policy = ByzantinePolicy::kFixed;
    std::vector<CrashEntry> scheduled_crashes;  ///< explicit timetable

    /// True when any message-level fault can fire (loss, duplication,
    /// corruption, stragglers). Gates the executor's per-message fast
    /// path: when false the delivery path is the fault-free one.
    [[nodiscard]] bool message_faults_active() const {
        return loss > 0.0 || duplication > 0.0 || corruption > 0.0 ||
               straggler_fraction > 0.0;
    }

    /// True when any node can be down at some time.
    [[nodiscard]] bool crash_active() const {
        return crash_rate > 0.0 || !scheduled_crashes.empty();
    }

    [[nodiscard]] bool byzantine_active() const {
        return byzantine_fraction > 0.0;
    }

    /// True when the plan can change a trajectory at all.
    [[nodiscard]] bool active() const {
        return message_faults_active() || crash_active() || byzantine_active();
    }

    /// Appends human-readable problems (empty = valid).
    void validate(std::vector<std::string>* problems) const;
};

/// Per-channel fault tallies, folded shard-by-shard in index order at the
/// executor barrier (never completion order) and surfaced as RunResult
/// extras.
struct FaultCounters {
    std::uint64_t lost = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t delayed = 0;      ///< straggler-inflated deliveries
    std::uint64_t crash_skips = 0;  ///< actions suppressed by a down node

    [[nodiscard]] std::uint64_t total() const {
        return lost + duplicated + corrupted + delayed + crash_skips;
    }

    FaultCounters& operator+=(const FaultCounters& other) {
        lost += other.lost;
        duplicated += other.duplicated;
        corrupted += other.corrupted;
        delayed += other.delayed;
        crash_skips += other.crash_skips;
        return *this;
    }
};

}  // namespace papc::fault
