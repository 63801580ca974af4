#pragma once

/// \file sequential_simulation.hpp
/// The *pure Poisson clock* reference model the paper contrasts itself
/// against (§1, discussion of [EFK+17]): nodes tick at rate 1 but channel
/// establishment is instant, so the memoryless property lets the whole
/// execution be *sequentialized* — one node acts at a time, at global
/// exponential spacing Exp(n). Algorithm 2+3 run unchanged on top (a node
/// reads both peers and the leader atomically at its tick; locking never
/// triggers because actions are instantaneous).
///
/// This engine isolates what the edge latencies cost: bench
/// exp_exchange_latency compares sequential vs latency-model runs, and the
/// tests pin that the generation dynamics (leader trace shape) coincide.
///
/// Ordering assumptions: the n independent rate-1 clocks collapse into a
/// single global Exp(n) tick stream whose winner is a uniform node drawn
/// *after* the race (memorylessness). The engine keeps exactly one pending
/// tick, so ties are impossible by construction. That single pending
/// event lives in a one-shard executor of the shared event skeleton
/// (sim/event_engine.hpp): the model is inherently serial — every
/// node may touch every other node atomically at a tick, so there is
/// nothing to shard — but the window machinery still batches the ticks
/// falling into each conservative window under one per-window RNG
/// substream, and one advance() = one window (~ delta·n global ticks).
/// Results are trivially thread-count invariant (a one-shard window is
/// always sequential).

#include <cstdint>
#include <vector>

#include "async/config.hpp"
#include "async/leader.hpp"
#include "async/node.hpp"
#include "async/simulation.hpp"
#include "opinion/assignment.hpp"
#include "sim/event_engine.hpp"
#include "support/random.hpp"

namespace papc::async {

/// Sequentialized single-leader protocol (no latencies). Its one pending
/// event is the next global race; the payload is unused.
class SequentialSingleLeaderSimulation final
    : public sim::EventEngine<SequentialSingleLeaderSimulation, NodeId,
                              LeaderShardCounters> {
public:
    SequentialSingleLeaderSimulation(const Assignment& assignment,
                                     const AsyncConfig& config,
                                     std::uint64_t seed);

    /// Out of line: keeps the vtable and the event loop in the .cpp.
    ~SequentialSingleLeaderSimulation() override;

    /// Runs to full consensus (or config.max_time). The AsyncResult's
    /// latency-specific fields (good_ticks == ticks, channels_opened == 0)
    /// reflect the instant-channel semantics; steps_per_unit is 1 (every
    /// node completes its action at its tick).
    [[nodiscard]] AsyncResult run();

    [[nodiscard]] const Leader& leader() const { return *leader_; }
    [[nodiscard]] const NodeState& node(NodeId v) const { return nodes_[v]; }

private:
    friend EventEngine;

    [[gnu::always_inline]] inline void on_event(Context& ctx, Shard& shard,
                                                double t, NodeId& unused);
    /// Copies of one leader-bound message after the serial fault draw
    /// (0 = lost, 2 = duplicated). A non-null `payload` (the generation of
    /// an i-signal) may be corrupted in place; 0-signals pass nullptr.
    std::size_t message_copies(Shard& shard, Generation* payload);

    AsyncConfig config_;
    /// The model is serial, so message faults draw from one run-long
    /// serial stream of the injector instead of the executor's windows.
    Rng fault_rng_{0};
    bool msg_faults_on_ = false;
    std::vector<NodeState> nodes_;
    std::unique_ptr<Leader> leader_;

    AsyncResult result_;
};

/// Convenience wrapper on a biased-plurality workload.
[[nodiscard]] AsyncResult run_sequential_single_leader(std::size_t n,
                                                       std::uint32_t k,
                                                       double alpha,
                                                       const AsyncConfig& config,
                                                       std::uint64_t seed);

}  // namespace papc::async
