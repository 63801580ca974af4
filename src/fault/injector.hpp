#pragma once

/// \file injector.hpp
/// Deterministic realization of a FaultPlan.
///
/// The injector is built once per run from (plan, n, horizon, parent Rng)
/// and is immutable afterwards: every query is const and thread-safe, so
/// one injector is safely shared by all shards of a windowed executor or
/// all workers of the sharded round driver. Determinism contract (the
/// PR 5/6 contract, extended to faults):
///
///   - The parent generator is NOT advanced: every stream derives through
///     the pure `Rng::substream`, so attaching an injector never shifts
///     an engine's existing random tape. A plan with all rates at zero
///     therefore reproduces the fault-free trajectory byte-for-byte.
///   - Message-fault decisions draw from `message_stream(window, shard)`
///     — a pure function of (seed, window counter, shard), never of the
///     thread count or shard completion order.
///   - Crash/recover timelines are precomputed per node at construction
///     from per-node substreams, so `is_down(v, t)` is a pure lookup.
///   - Byzantine membership is drawn once, node-ascending, at
///     construction; per-round adversarial opinions draw from
///     `byzantine_round_stream(round)`.
///
/// Rates of zero draw nothing (the per-message draw sequence skips
/// disabled channels). This is safe because the plan is part of the
/// trajectory identity: changing any rate is allowed to change every
/// subsequent fault decision.

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/plan.hpp"
#include "opinion/types.hpp"
#include "support/random.hpp"

namespace papc::fault {

/// The fate of one message, drawn channel by channel in fixed order.
struct MessageFate {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    double delay_multiplier = 1.0;  ///< > 1 for stragglers
};

class Injector {
public:
    /// Crash/recover boundaries per node are truncated beyond this count;
    /// past the cap a node's last up/down state persists. Bounds timeline
    /// memory for degenerate (rate x horizon) products; documented, and
    /// deterministic either way.
    static constexpr std::size_t kMaxBoundariesPerNode = 256;

    /// `horizon` is the simulated-time span crash timelines must cover
    /// (max_time for event engines, max rounds / interactions-per-node
    /// for the round/pair engines). `parent` is read, never advanced.
    Injector(const FaultPlan& plan, std::size_t n, double horizon,
             const Rng& parent);

    [[nodiscard]] const FaultPlan& plan() const { return plan_; }
    [[nodiscard]] std::size_t population() const { return n_; }

    // ------------------------------------------------------- message layer
    [[nodiscard]] bool message_faults_active() const {
        return plan_.message_faults_active();
    }

    /// Per-(window, shard) message-fault stream — the executor assigns one
    /// to each lane at window start, exactly like the engine substreams.
    [[nodiscard]] Rng message_stream(std::uint64_t window,
                                     std::uint64_t shard) const {
        return msg_base_.substream(window, shard);
    }

    /// Serial engines (sequential single-leader, population pairs) hold
    /// one message/pair stream for the whole run.
    [[nodiscard]] Rng serial_stream() const {
        // papc-lint: allow(D7): disjoint from message_stream — the windowed
        // executor pre-increments window_counter_ before deriving lane
        // streams, so windowed labels always have window >= 1, and a run
        // uses either the windowed or the serial stream, never both.
        return msg_base_.substream(0, 0);
    }

    /// Draws one message's fate from `rng` in fixed channel order
    /// (loss, duplication, corruption, straggler).
    [[nodiscard]] MessageFate draw_fate(Rng& rng) const;

    // --------------------------------------------------------- crash layer
    [[nodiscard]] bool crash_active() const { return plan_.crash_active(); }

    /// True when node v is down at time t (>= crash boundary, < recover
    /// boundary). Pure lookup into the precomputed timeline.
    [[nodiscard]] bool is_down(NodeId v, double t) const;

    /// True when the distinguished leader is down at time t (driven by
    /// scheduled_crashes entries with node == kLeaderNode): t >= the
    /// earliest such entry's time.
    [[nodiscard]] bool leader_down(double t) const {
        return t >= leader_crash_time_;
    }

    [[nodiscard]] bool has_leader_crash() const {
        return leader_crash_time_ !=
               std::numeric_limits<double>::infinity();
    }

    /// Nodes with at least one crash boundary inside the horizon.
    [[nodiscard]] std::uint64_t nodes_crashed() const {
        return nodes_crashed_;
    }

    // ----------------------------------------------------- byzantine layer
    [[nodiscard]] bool byzantine_active() const {
        return plan_.byzantine_active();
    }

    [[nodiscard]] ByzantinePolicy byzantine_policy() const {
        return plan_.byzantine_policy;
    }

    [[nodiscard]] bool is_byzantine(NodeId v) const {
        return !byzantine_.empty() && byzantine_[v] != 0;
    }

    [[nodiscard]] std::uint64_t byzantine_count() const {
        return byzantine_count_;
    }

    /// Ascending node ids of the Byzantine set (empty when inactive).
    [[nodiscard]] const std::vector<NodeId>& byzantine_nodes() const {
        return byzantine_nodes_;
    }

    /// Per-round stream for the kRandom reporting policy: round r's
    /// adversarial opinions are a pure function of (seed, r), drawn in
    /// ascending node order by the engine.
    [[nodiscard]] Rng byzantine_round_stream(std::uint64_t round) const {
        return byz_base_.substream(1, round);
    }

private:
    void build_crash_timelines(double horizon);
    void build_byzantine_set();

    FaultPlan plan_;
    std::size_t n_;
    Rng msg_base_{0};
    Rng crash_base_{0};
    Rng byz_base_{0};

    // CSR crash/recover timeline: boundaries_[offsets_[v]..offsets_[v+1])
    // are node v's alternating crash/recover times (first = crash). A node
    // is down at t iff an odd number of its boundaries are <= t, or its
    // scheduled permanent crash has passed.
    std::vector<std::uint32_t> offsets_;
    std::vector<double> boundaries_;
    std::vector<double> scheduled_down_;  ///< per-node permanent crash time
    double leader_crash_time_ = std::numeric_limits<double>::infinity();
    std::uint64_t nodes_crashed_ = 0;

    std::vector<std::uint8_t> byzantine_;   ///< membership bitmap
    std::vector<NodeId> byzantine_nodes_;   ///< ascending member ids
    std::uint64_t byzantine_count_ = 0;
};

/// Shared target pick of the kAdaptive reporting policy: the strongest
/// minority — largest count among opinions other than the current
/// dominant, smallest index winning ties (k == 1 degenerates to 0).
/// `count(j)` must return the population currently holding opinion j.
template <typename CountFn>
[[nodiscard]] Opinion strongest_minority(std::uint32_t k, CountFn&& count) {
    Opinion dominant = 0;
    std::uint64_t dominant_count = count(0);
    for (Opinion j = 1; j < k; ++j) {
        const std::uint64_t c = count(j);
        if (c > dominant_count) {
            dominant_count = c;
            dominant = j;
        }
    }
    Opinion target = dominant;
    std::uint64_t best = 0;
    bool found = false;
    for (Opinion j = 0; j < k; ++j) {
        if (j == dominant) continue;
        const std::uint64_t c = count(j);
        if (!found || c > best) {
            found = true;
            best = c;
            target = j;
        }
    }
    return target;
}

}  // namespace papc::fault
