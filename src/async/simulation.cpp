#include "async/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/latency_units.hpp"
#include "analysis/theory.hpp"
#include "support/check.hpp"

namespace papc::async {

LeaderConfig leader_config_for(const AsyncConfig& config, std::size_t n,
                               std::uint32_t k, double steps_per_unit) {
    LeaderConfig leader_config;
    leader_config.zero_signal_threshold = static_cast<std::uint64_t>(std::ceil(
        config.two_choices_units * steps_per_unit * static_cast<double>(n)));
    leader_config.generation_size_threshold = static_cast<std::uint64_t>(std::ceil(
        config.generation_size_fraction * static_cast<double>(n)));
    leader_config.max_generation = analysis::total_generations(
        std::max(config.alpha_hint, 1.0 + 1e-9), k, n, config.generation_slack);
    return leader_config;
}

std::vector<NodeState> initial_nodes(const Assignment& assignment) {
    std::vector<NodeState> nodes(assignment.size());
    for (NodeId v = 0; v < nodes.size(); ++v) {
        nodes[v].col = assignment.opinions[v];
    }
    return nodes;
}

SingleLeaderSimulation::SingleLeaderSimulation(const Assignment& assignment,
                                               const AsyncConfig& config,
                                               std::uint64_t seed)
    : SingleLeaderSimulation(assignment, config,
                             sim::make_exponential_latency(config.lambda), seed) {}

SingleLeaderSimulation::SingleLeaderSimulation(
    const Assignment& assignment, const AsyncConfig& config,
    std::unique_ptr<sim::LatencyModel> latency, std::uint64_t seed)
    : EventEngine(assignment, seed),
      config_(config),
      latency_(std::move(latency)),
      nodes_(initial_nodes(assignment)) {
    PAPC_CHECK(latency_ != nullptr);
}

SingleLeaderSimulation::~SingleLeaderSimulation() = default;

void SingleLeaderSimulation::begin_window() {
    // Peer reads inside the window observe the window-start state: the
    // owning shard is the only writer of a node, so the live array would
    // race, and snapshot reads are also what makes the trajectory
    // independent of shard completion order.
    nodes_snap_ = nodes_;
    snap_leader_gen_ = leader_->gen();
    snap_leader_prop_ = leader_->prop();
}

void SingleLeaderSimulation::on_event(Context& ctx, Shard& shard, double t,
                                      AsyncEvent& ev) {
    Rng& rng = ctx.rng();
    const auto sample_peer = [&](NodeId self) {
        return static_cast<NodeId>(
            rng.uniform_index_excluding(nodes_.size(), self));
    };
    switch (ev.kind) {
        case AsyncEventKind::kTick: {
            ++shard.counters.ticks;
            NodeState& v = nodes_[ev.node];
            // A crashed node sends nothing and starts nothing, but its
            // Poisson clock keeps running so it resumes after a recovery
            // boundary.
            if (node_down(ev.node, t)) {
                ++shard.counters.faults.crash_skips;
                ctx.emit(ctx.shard(), t + rng.exponential(1.0),
                         AsyncEvent{AsyncEventKind::kTick, ev.node, 0, 0, 0});
                break;
            }
            // Line 1: 0-signal to the leader — fire and forget, but the
            // signal itself travels one latency draw.
            ctx.emit_message(leader_shard(kLeader), t, t + latency_->sample(rng),
                             AsyncEvent{AsyncEventKind::kZeroSignal, 0, 0, 0, 0});
            // Line 2: locked nodes do nothing else at this tick.
            if (!v.locked) {
                v.locked = true;
                ++shard.model.good_ticks;
                shard.model.channels_opened += 3;
                // Lines 3-4: open two peer channels concurrently, then the
                // leader channel: max(T2,T2) + T2.
                const double peer_a = latency_->sample(rng);
                const double peer_b = latency_->sample(rng);
                const double to_leader = latency_->sample(rng);
                const double ready = t + std::max(peer_a, peer_b) + to_leader;
                ctx.emit(ctx.shard(), ready,
                         AsyncEvent{AsyncEventKind::kExchange, ev.node,
                                    sample_peer(ev.node), sample_peer(ev.node),
                                    0});
            }
            // Next Poisson tick (stays on the node's own shard).
            ctx.emit(ctx.shard(), t + rng.exponential(1.0),
                     AsyncEvent{AsyncEventKind::kTick, ev.node, 0, 0, 0});
            break;
        }

        case AsyncEventKind::kExchange: {
            NodeState& v = nodes_[ev.node];
            PAPC_CHECK(v.locked);
            // A node that crashed while its channels were opening
            // completes nothing: unlock and move on.
            if (node_down(ev.node, t)) {
                ++shard.counters.faults.crash_skips;
                v.locked = false;
                break;
            }
            ++shard.counters.exchanges;
            // Peers and leader are read from the window-start snapshots
            // (see begin_window()).
            const NodeState& p1 = nodes_snap_[ev.peer1];
            const NodeState& p2 = nodes_snap_[ev.peer2];
            const PeerSample s1{p1.gen, p1.col};
            const PeerSample s2{p2.gen, p2.col};
            const Generation old_gen = v.gen;
            const Opinion old_col = v.col;
            const ExchangeDecision decision = decide_exchange(
                v, snap_leader_gen_, snap_leader_prop_, s1, s2);
            const bool changed = apply_decision(v, decision, snap_leader_gen_,
                                                snap_leader_prop_);
            switch (decision.kind) {
                case ExchangeDecision::Kind::kTwoChoices:
                    ++shard.counters.two_choices_count;
                    break;
                case ExchangeDecision::Kind::kPropagation:
                    ++shard.counters.propagation_count;
                    break;
                case ExchangeDecision::Kind::kRefreshOnly:
                    ++shard.model.refreshes;
                    break;
                case ExchangeDecision::Kind::kNone:
                    break;
            }
            if (changed) {
                shard.moves.push_back(
                    sim::CensusMove{old_gen, old_col, v.gen, v.col});
                // Invariant: never beyond the leader's generation (the
                // snapshot is a lower bound of the live one).
                PAPC_CHECK(v.gen <= snap_leader_gen_);
                if (decision.send_gen_signal) {
                    // Corruption rewrites the generation payload downward
                    // into [1, gen] — an adversarially garbled but
                    // protocol-legal signal.
                    ctx.emit_message(
                        leader_shard(kLeader), t, t + latency_->sample(rng),
                        AsyncEvent{AsyncEventKind::kGenSignal, 0, 0, 0, v.gen},
                        [](Rng& fault_rng, AsyncEvent& msg) {
                            msg.gen = static_cast<Generation>(
                                1 + fault_rng.uniform_index(msg.gen));
                        });
                }
            }
            v.locked = false;  // line 15
            break;
        }

        case AsyncEventKind::kZeroSignal:
            record_leader_signal(shard, kLeader, t);
            if (!leader_down(t)) leader_->on_zero_signal(t);
            break;

        case AsyncEventKind::kGenSignal:
            record_leader_signal(shard, kLeader, t);
            if (!leader_down(t)) leader_->on_gen_signal(t, ev.gen);
            break;
    }
}

AsyncResult SingleLeaderSimulation::run() {
    const std::size_t n = nodes_.size();
    begin_run(config_.fault, config_.max_time);
    result_.leader_generation = TimeSeries("leader-generation");

    // Measure C1 = F^{-1}(0.9) of T3 for this latency model (Monte Carlo;
    // deterministic given the seed).
    Rng c1_rng = rng().split();
    result_.steps_per_unit =
        analysis::t3_quantile_monte_carlo(*latency_, 0.9, 20000, c1_rng);
    leader_ = std::make_unique<Leader>(leader_config_for(
        config_, n, census().num_opinions(), result_.steps_per_unit));

    // Pending events stay near 2 per node (next tick + in-flight
    // exchange/signal).
    open_executor(config_, 2 * n, /*leaders=*/1);
    seed_ticks([](NodeId v) {
        return AsyncEvent{AsyncEventKind::kTick, v, 0, 0, 0};
    });
    run_events(config_, result_, [this](double time, double) {
        if (config_.record_series) {
            result_.leader_generation.record(
                time, static_cast<double>(leader_->gen()));
        }
    });

    for (const Shard& shard : shards()) {
        result_.good_ticks += shard.model.good_ticks;
        result_.refresh_count += shard.model.refreshes;
        result_.channels_opened += shard.model.channels_opened;
    }
    result_.leader_trace = leader_->trace();
    return std::move(result_);
}

AsyncResult run_single_leader(std::size_t n, std::uint32_t k, double alpha,
                              const AsyncConfig& config, std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, 0xA551));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    SingleLeaderSimulation simulation(assignment, config, derive_seed(seed, 0x51));
    return simulation.run();
}

}  // namespace papc::async
