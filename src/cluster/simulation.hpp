#pragma once

/// \file simulation.hpp
/// The full decentralized protocol (§4): clustering phase (Theorem 27) +
/// consensus phase (Algorithms 4 + 5, Theorem 26). Nodes in active clusters
/// execute Algorithm 4; everyone else is passive and receives the outcome
/// through the `finished` flag propagation (Algorithm 4 lines 5–7).
/// The run loop (budgets, sampling, ε/consensus detection) is owned by
/// core::run(); failure injection piggybacks on the driver's sample hook.
///
/// The consensus phase runs on the shared event skeleton
/// (sim/event_engine.hpp, which holds the porting notes common to every
/// event model). Multi-leader specifics:
///   - cluster leader c is owned by shard c mod S: all member signals to c
///     route there, and only that shard touches c's counters and per-leader
///     congestion window;
///   - exchanges read sampled members and both leaders from window-start
///     snapshots (members_snap_ / leader_snap_);
///   - the finished-flag epidemic's *push* direction (Algorithm 4 line 5)
///     writes remote members, so it becomes a kAdopt event emitted to the
///     target's shard; the *pull* direction reads the snapshot and writes
///     only the node itself;
///   - failure injection stays observer-driven: leaders crash between
///     windows, so alive_ is read-only while shards run.
/// Fixed-seed trajectories are bit-identical at every thread count.

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_leader.hpp"
#include "cluster/clustering.hpp"
#include "cluster/config.hpp"
#include "cluster/member.hpp"
#include "core/run_result.hpp"
#include "opinion/assignment.hpp"
#include "sim/event_engine.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"

namespace papc::cluster {

/// Aggregate outcome of one full multi-leader run: the unified convergence
/// semantics (core::RunResult, on the consensus-phase clock starting at 0;
/// steps counts executor windows), the counters every event family reports
/// (sim::EventCounters; the leader load is spread over all cluster
/// leaders), and the clustering accounting below.
struct MultiLeaderResult : core::RunResult, sim::EventCounters {
    // Clustering phase.
    ClusteringResult clustering;
    double clustering_time = 0.0;

    // Consensus phase accounting.
    double finished_fraction = 0.0;  ///< nodes with the finished flag at end
    std::uint64_t finished_adoptions = 0;

    /// Per-active-cluster leader traces (Figure 2 source data).
    std::vector<std::vector<ClusterLeaderTransition>> leader_traces;

    /// Total time: clustering + consensus phases.
    [[nodiscard]] double total_time() const {
        return clustering_time + (consensus_time >= 0.0 ? consensus_time : end_time);
    }
};

/// Per-shard counters of the multi-leader model beyond sim::EventCounters.
struct ClusterShardCounters {
    std::uint64_t adoptions = 0;  ///< finished opinions adopted
    std::uint64_t finished = 0;   ///< nodes that set the finished flag
};

enum class ClusterEventKind : std::uint8_t {
    kTick,
    kExchange,
    kSignal,     ///< member signal arriving at its own leader
    kAdopt,      ///< finished node pushing its final opinion to a sample
};

struct ClusterEvent {
    ClusterEventKind kind = ClusterEventKind::kTick;
    NodeId node = 0;
    NodeId s1 = 0;
    NodeId s2 = 0;
    NodeId s3 = 0;
    std::int32_t cluster = kNoCluster;  ///< kSignal target
    Generation sig_i = 0;
    LeaderState sig_s = LeaderState::kTwoChoices;
    bool sig_changed = false;
    Opinion col = 0;                    ///< kAdopt payload
};

/// Runs the consensus phase over an existing clustering.
class MultiLeaderSimulation final
    : public sim::EventEngine<MultiLeaderSimulation, ClusterEvent,
                              ClusterShardCounters> {
public:
    MultiLeaderSimulation(const Assignment& assignment,
                          ClusteringResult clustering,
                          const ClusterConfig& config, std::uint64_t seed);

    /// Out of line: keeps the vtable and the event loop in the .cpp.
    ~MultiLeaderSimulation() override;

    /// Runs to full consensus (or config.max_time). Clustering fields of
    /// the result are copied from the provided clustering.
    [[nodiscard]] MultiLeaderResult run();

    [[nodiscard]] const MemberState& member(NodeId v) const { return members_[v]; }
    [[nodiscard]] const ClusterLeader& leader(std::size_t c) const {
        return *leaders_[c];
    }
    [[nodiscard]] std::size_t num_clusters() const { return leaders_.size(); }

private:
    friend EventEngine;

    /// Window-start snapshot of one cluster leader's public state.
    struct LeaderSnap {
        Generation gen = 1;
        LeaderState state = LeaderState::kTwoChoices;
    };

    void begin_window();
    [[gnu::always_inline]] inline void on_event(Context& ctx, Shard& shard,
                                                double t, ClusterEvent& ev);
    void mark_finished(Shard& shard, NodeId v);
    void adopt_finished(Shard& shard, NodeId v, Opinion col);
    void maybe_inject_failure();

    ClusterConfig config_;
    ClusteringResult clustering_;
    sim::ExponentialLatency latency_;
    std::vector<MemberState> members_;
    std::vector<MemberState> members_snap_;  ///< window-start copy
    std::vector<std::unique_ptr<ClusterLeader>> leaders_;
    std::vector<LeaderSnap> leader_snap_;    ///< window-start leader states

    MultiLeaderResult result_;
    Generation max_generation_ = 0;

    // Failure injection (§4 resilience).
    std::vector<bool> alive_;
    bool failure_injected_ = false;
};

/// Convenience: clustering + consensus in one call on a biased-plurality
/// workload.
[[nodiscard]] MultiLeaderResult run_multi_leader(std::size_t n, std::uint32_t k,
                                                 double alpha,
                                                 const ClusterConfig& config,
                                                 std::uint64_t seed);

}  // namespace papc::cluster
