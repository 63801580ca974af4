#pragma once

/// \file simulation.hpp
/// Event-driven executor of the asynchronous single-leader protocol
/// (Algorithms 2 + 3, §3). The simulation implements exactly the random
/// process the paper analyzes:
///   - every node has a rate-1 Poisson clock;
///   - at a tick the node always sends a 0-signal to the leader (arriving
///     after one latency draw) and, if not locked, locks and opens channels
///     to two uniform peers (concurrently) and then the leader; the full
///     exchange completes after max(T2, T2) + T2;
///   - at completion the node atomically reads both peers and the leader
///     and applies Algorithm 2; generation promotions notify the leader
///     with an i-signal (one more latency draw).
///
/// It runs on the shared event skeleton (sim/event_engine.hpp, which holds
/// the porting notes common to every event model): one advance() is one
/// conservative window, peer and leader reads go through window-start
/// snapshots, and the leader's signal events are owned by shard 0. Results
/// are bit-identical at every thread count.

#include <cstdint>
#include <memory>
#include <vector>

#include "async/config.hpp"
#include "async/leader.hpp"
#include "async/node.hpp"
#include "core/run_result.hpp"
#include "opinion/assignment.hpp"
#include "sim/event_engine.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"
#include "support/timeseries.hpp"

namespace papc::async {

/// Aggregate outcome of one single-leader run: the unified convergence
/// semantics (core::RunResult; steps counts executor windows), the
/// counters every event family reports (sim::EventCounters), and the
/// single-leader accounting below.
struct AsyncResult : core::RunResult, sim::EventCounters {
    std::uint64_t good_ticks = 0;       ///< ticks that started an exchange
    std::uint64_t refresh_count = 0;    ///< leader-state refreshes
    std::uint64_t channels_opened = 0;  ///< channel establishments
    double steps_per_unit = 0.0;        ///< measured C1 used for thresholds

    std::vector<LeaderTransition> leader_trace;
    TimeSeries leader_generation;   ///< leader gen over time
};

/// The distinguished leader's index in the skeleton's per-leader load
/// windows; its signal events are owned by leader_shard(kLeader), shard 0.
inline constexpr std::size_t kLeader = 0;

/// Per-shard counters of the single-leader models beyond
/// sim::EventCounters (commits/aborts: validated model only).
struct LeaderShardCounters {
    std::uint64_t good_ticks = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t channels_opened = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
};

/// Leader thresholds for population n (§3.2): C3·n 0-signals span
/// `two_choices_units` time units of `steps_per_unit` (Proposition 16);
/// the generation-size gate is ⌈fraction·n⌉; G* from the closed form.
[[nodiscard]] LeaderConfig leader_config_for(const AsyncConfig& config,
                                             std::size_t n, std::uint32_t k,
                                             double steps_per_unit);

/// Generation-0 nodes holding the assignment's opinions, with the
/// leader's initial public state (gen 1, prop false) stored.
[[nodiscard]] std::vector<NodeState> initial_nodes(const Assignment& assignment);

enum class AsyncEventKind : std::uint8_t {
    kTick,        ///< a node's Poisson clock fired
    kExchange,    ///< a node's three channels are established
    kZeroSignal,  ///< a 0-signal reaches the leader
    kGenSignal,   ///< an i-signal reaches the leader
};

struct AsyncEvent {
    AsyncEventKind kind = AsyncEventKind::kTick;
    NodeId node = 0;
    NodeId peer1 = 0;
    NodeId peer2 = 0;
    Generation gen = 0;
};

/// Single-leader asynchronous simulation.
class SingleLeaderSimulation final
    : public sim::EventEngine<SingleLeaderSimulation, AsyncEvent,
                              LeaderShardCounters> {
public:
    /// Uses Exponential(config.lambda) latencies.
    SingleLeaderSimulation(const Assignment& assignment, const AsyncConfig& config,
                           std::uint64_t seed);

    /// Uses a caller-supplied latency model (takes ownership). The auto
    /// window width is still derived from config.lambda — set
    /// config.window explicitly for models with a very different scale.
    SingleLeaderSimulation(const Assignment& assignment, const AsyncConfig& config,
                           std::unique_ptr<sim::LatencyModel> latency,
                           std::uint64_t seed);

    /// Out of line, so the vtable and the inlined event loop stay in the
    /// .cpp that defines the handler.
    ~SingleLeaderSimulation() override;

    /// Runs to full consensus (or config.max_time) and returns the result.
    [[nodiscard]] AsyncResult run();

    /// Observers, valid after run().
    [[nodiscard]] const Leader& leader() const { return *leader_; }
    [[nodiscard]] const NodeState& node(NodeId v) const { return nodes_[v]; }
    [[nodiscard]] std::size_t population() const { return nodes_.size(); }

private:
    friend EventEngine;

    void begin_window();
    [[gnu::always_inline]] inline void on_event(Context& ctx, Shard& shard,
                                                double t, AsyncEvent& ev);

    AsyncConfig config_;
    std::unique_ptr<sim::LatencyModel> latency_;
    std::vector<NodeState> nodes_;
    std::vector<NodeState> nodes_snap_;  ///< window-start copy (peer reads)
    std::unique_ptr<Leader> leader_;

    // Window-start snapshot of the leader's public state (exchange reads).
    Generation snap_leader_gen_ = 1;
    bool snap_leader_prop_ = false;

    AsyncResult result_;
};

/// Convenience: builds a biased-plurality workload and runs one simulation.
[[nodiscard]] AsyncResult run_single_leader(std::size_t n, std::uint32_t k,
                                            double alpha, const AsyncConfig& config,
                                            std::uint64_t seed);

}  // namespace papc::async
