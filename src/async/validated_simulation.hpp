#pragma once

/// \file validated_simulation.hpp
/// The §5 (Summary and Conclusion) model extension: *message exchange over
/// an established channel also takes time*. The paper sketches the fix for
/// the single-leader case:
///
///   "This can easily be relaxed in the single leader case by contacting
///    the leader after each potential update of opinions and generation
///    number, and the updates are committed only, if the state of the
///    leader has not been changed in the meantime."
///
/// This engine implements that two-phase commit protocol on top of the
/// Algorithm 2+3 machinery:
///   1. good tick at t0 — channels to two peers (concurrent) and the leader
///      open; established at t1 = t0 + max(T2,T2) + T2;
///   2. request/response messages cross the channels: peer states and the
///      leader state are *read* at t2 = t1 + 2·T4 (T4 = per-message
///      latency);
///   3. the node evaluates Algorithm 2 on the t2 snapshot; if it would
///      change state, it opens a fresh validation channel to the leader
///      (T2) and round-trips one message pair (2·T4), finishing at
///      t3 = t2 + T2 + 2·T4;
///   4. the update *commits* at t3 only if the leader's public (gen, prop)
///      is unchanged between t2 and t3; otherwise it aborts and the node
///      only refreshes its stored leader state.
/// Aborts preserve the §3.2 interleaving invariants under message delays;
/// bench/exp_exchange_latency measures their cost.
///
/// It runs on the shared event skeleton (sim/event_engine.hpp, which holds
/// the porting notes common to every event model): one advance() is one
/// conservative window, and peer/leader reads go through window-start
/// snapshots — the t2/t3 leader states the commit rule compares are the
/// snapshots of the windows containing t2 and t3. Fixed-seed results are
/// bit-identical at every thread count.

#include <cstdint>
#include <memory>
#include <vector>

#include "async/config.hpp"
#include "async/leader.hpp"
#include "async/node.hpp"
#include "async/simulation.hpp"
#include "opinion/assignment.hpp"
#include "sim/event_engine.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"

namespace papc::async {

/// Result of a validated run: the base AsyncResult plus commit accounting.
struct ValidatedResult {
    AsyncResult base;
    std::uint64_t commits = 0;        ///< validated updates applied
    std::uint64_t aborts = 0;         ///< updates dropped by stale validation
    double abort_rate = 0.0;          ///< aborts / (commits + aborts)
};

enum class ValidatedEventKind : std::uint8_t {
    kTick,
    kSnapshot,    ///< channels + first message round done: read states
    kValidate,    ///< validation round-trip done: commit or abort
    kZeroSignal,
    kGenSignal,
};

struct ValidatedEvent {
    ValidatedEventKind kind = ValidatedEventKind::kTick;
    NodeId node = 0;
    NodeId peer1 = 0;
    NodeId peer2 = 0;
    Generation gen = 0;        ///< kGenSignal payload
    // kValidate payload: the tentative decision and the leader snapshot it
    // was computed against.
    ExchangeDecision decision{};
    Generation snap_gen = 0;
    bool snap_prop = false;
};

/// Single-leader protocol under channel latencies T2 *and* per-message
/// latencies T4, with leader-validated commits (§5).
class ValidatedSingleLeaderSimulation final
    : public sim::EventEngine<ValidatedSingleLeaderSimulation, ValidatedEvent,
                              LeaderShardCounters> {
public:
    /// `channel` models T2 (establishment), `message` models T4 (one
    /// message over an established channel). Both are owned.
    ValidatedSingleLeaderSimulation(const Assignment& assignment,
                                    const AsyncConfig& config,
                                    std::unique_ptr<sim::LatencyModel> channel,
                                    std::unique_ptr<sim::LatencyModel> message,
                                    std::uint64_t seed);

    /// Out of line: keeps the vtable and the event loop in the .cpp.
    ~ValidatedSingleLeaderSimulation() override;

    [[nodiscard]] ValidatedResult run();

    [[nodiscard]] const Leader& leader() const { return *leader_; }
    [[nodiscard]] const NodeState& node(NodeId v) const { return nodes_[v]; }

private:
    friend EventEngine;

    void begin_window();
    [[gnu::always_inline]] inline void on_event(Context& ctx, Shard& shard,
                                                double t, ValidatedEvent& ev);

    AsyncConfig config_;
    std::unique_ptr<sim::LatencyModel> channel_;
    std::unique_ptr<sim::LatencyModel> message_;
    std::vector<NodeState> nodes_;
    std::vector<NodeState> nodes_snap_;  ///< window-start copy (peer reads)
    std::unique_ptr<Leader> leader_;

    Generation snap_leader_gen_ = 1;
    bool snap_leader_prop_ = false;

    ValidatedResult result_;
};

/// Convenience wrapper: biased-plurality workload, Exponential(λ) channels
/// and Exponential(message_rate) messages.
[[nodiscard]] ValidatedResult run_validated_single_leader(
    std::size_t n, std::uint32_t k, double alpha, const AsyncConfig& config,
    double message_rate, std::uint64_t seed);

}  // namespace papc::async
