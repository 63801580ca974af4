#include "async/validated_simulation.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/latency_units.hpp"
#include "support/check.hpp"

namespace papc::async {

ValidatedSingleLeaderSimulation::ValidatedSingleLeaderSimulation(
    const Assignment& assignment, const AsyncConfig& config,
    std::unique_ptr<sim::LatencyModel> channel,
    std::unique_ptr<sim::LatencyModel> message, std::uint64_t seed)
    : EventEngine(assignment, seed),
      config_(config),
      channel_(std::move(channel)),
      message_(std::move(message)),
      nodes_(initial_nodes(assignment)) {
    PAPC_CHECK(channel_ != nullptr && message_ != nullptr);
}

ValidatedSingleLeaderSimulation::~ValidatedSingleLeaderSimulation() = default;

void ValidatedSingleLeaderSimulation::begin_window() {
    nodes_snap_ = nodes_;
    snap_leader_gen_ = leader_->gen();
    snap_leader_prop_ = leader_->prop();
}

void ValidatedSingleLeaderSimulation::on_event(Context& ctx, Shard& shard,
                                               double t, ValidatedEvent& ev) {
    Rng& rng = ctx.rng();
    const auto sample_peer = [&](NodeId self) {
        return static_cast<NodeId>(
            rng.uniform_index_excluding(nodes_.size(), self));
    };
    // A signal needs a channel plus one message crossing.
    const auto signal_delay = [&] {
        return channel_->sample(rng) + message_->sample(rng);
    };
    switch (ev.kind) {
        case ValidatedEventKind::kTick: {
            ++shard.counters.ticks;
            NodeState& v = nodes_[ev.node];
            if (node_down(ev.node, t)) {
                ++shard.counters.faults.crash_skips;
                ValidatedEvent next;
                next.kind = ValidatedEventKind::kTick;
                next.node = ev.node;
                ctx.emit(ctx.shard(), t + rng.exponential(1.0), next);
                break;
            }
            {
                ValidatedEvent sig;
                sig.kind = ValidatedEventKind::kZeroSignal;
                ctx.emit_message(leader_shard(kLeader), t, t + signal_delay(),
                                 sig);
            }
            if (!v.locked) {
                v.locked = true;
                ++shard.model.good_ticks;
                const double establish =
                    std::max(channel_->sample(rng),
                             channel_->sample(rng)) +
                    channel_->sample(rng);
                const double first_round =
                    2.0 * message_->sample(rng);  // request + reply
                ValidatedEvent snap;
                snap.kind = ValidatedEventKind::kSnapshot;
                snap.node = ev.node;
                snap.peer1 = sample_peer(ev.node);
                snap.peer2 = sample_peer(ev.node);
                ctx.emit(ctx.shard(), t + establish + first_round, snap);
            }
            ValidatedEvent next;
            next.kind = ValidatedEventKind::kTick;
            next.node = ev.node;
            ctx.emit(ctx.shard(), t + rng.exponential(1.0), next);
            break;
        }

        case ValidatedEventKind::kSnapshot: {
            NodeState& v = nodes_[ev.node];
            PAPC_CHECK(v.locked);
            if (node_down(ev.node, t)) {
                ++shard.counters.faults.crash_skips;
                v.locked = false;
                break;
            }
            ++shard.counters.exchanges;
            const NodeState& p1 = nodes_snap_[ev.peer1];
            const NodeState& p2 = nodes_snap_[ev.peer2];
            const ExchangeDecision decision = decide_exchange(
                v, snap_leader_gen_, snap_leader_prop_,
                PeerSample{p1.gen, p1.col}, PeerSample{p2.gen, p2.col});
            switch (decision.kind) {
                case ExchangeDecision::Kind::kRefreshOnly:
                    ++shard.model.refreshes;
                    (void)apply_decision(v, decision, snap_leader_gen_,
                                         snap_leader_prop_);
                    v.locked = false;
                    break;
                case ExchangeDecision::Kind::kNone:
                    v.locked = false;
                    break;
                case ExchangeDecision::Kind::kTwoChoices:
                case ExchangeDecision::Kind::kPropagation: {
                    // Two-phase commit: validate against the leader
                    // before applying (§5).
                    ValidatedEvent val;
                    val.kind = ValidatedEventKind::kValidate;
                    val.node = ev.node;
                    val.decision = decision;
                    val.snap_gen = snap_leader_gen_;
                    val.snap_prop = snap_leader_prop_;
                    const double validation =
                        channel_->sample(rng) +
                        2.0 * message_->sample(rng);
                    ctx.emit(ctx.shard(), t + validation, val);
                    break;
                }
            }
            break;
        }

        case ValidatedEventKind::kValidate: {
            NodeState& v = nodes_[ev.node];
            PAPC_CHECK(v.locked);
            if (node_down(ev.node, t)) {
                ++shard.counters.faults.crash_skips;
                v.locked = false;
                break;
            }
            if (snap_leader_gen_ == ev.snap_gen &&
                snap_leader_prop_ == ev.snap_prop) {
                // Leader unchanged between the two window
                // snapshots: commit.
                const Generation old_gen = v.gen;
                const Opinion old_col = v.col;
                const bool changed =
                    apply_decision(v, ev.decision, snap_leader_gen_,
                                   snap_leader_prop_);
                if (changed) {
                    ++shard.model.commits;
                    if (ev.decision.kind ==
                        ExchangeDecision::Kind::kTwoChoices) {
                        ++shard.counters.two_choices_count;
                    } else {
                        ++shard.counters.propagation_count;
                    }
                    shard.moves.push_back(
                        sim::CensusMove{old_gen, old_col, v.gen, v.col});
                    PAPC_CHECK(v.gen <= snap_leader_gen_);
                    if (ev.decision.send_gen_signal) {
                        ValidatedEvent sig;
                        sig.kind = ValidatedEventKind::kGenSignal;
                        sig.gen = v.gen;
                        ctx.emit_message(
                            leader_shard(kLeader), t, t + signal_delay(), sig,
                            [](Rng& fault_rng, ValidatedEvent& msg) {
                                msg.gen = static_cast<Generation>(
                                    1 +
                                    fault_rng.uniform_index(msg.gen));
                            });
                    }
                }
            } else {
                // Leader moved on: abort and refresh stored state.
                ++shard.model.aborts;
                v.seen_gen = snap_leader_gen_;
                v.seen_prop = snap_leader_prop_;
            }
            v.locked = false;
            break;
        }

        case ValidatedEventKind::kZeroSignal:
            record_leader_signal(shard, kLeader, t);
            if (!leader_down(t)) leader_->on_zero_signal(t);
            break;

        case ValidatedEventKind::kGenSignal:
            record_leader_signal(shard, kLeader, t);
            if (!leader_down(t)) leader_->on_gen_signal(t, ev.gen);
            break;
    }
}

ValidatedResult ValidatedSingleLeaderSimulation::run() {
    const std::size_t n = nodes_.size();
    begin_run(config_.effective_fault(), config_.max_time);
    AsyncResult& base = result_.base;
    base.leader_generation = TimeSeries("leader-generation");

    // One full cycle now includes two message round-trips and the
    // validation channel; measure C1 for this composition (Monte Carlo;
    // deterministic given the seed).
    Rng c1_rng = rng().split();
    base.steps_per_unit = analysis::validated_cycle_quantile_monte_carlo(
        *channel_, *message_, 0.9, 20000, c1_rng);
    leader_ = std::make_unique<Leader>(leader_config_for(
        config_, n, census().num_opinions(), base.steps_per_unit));

    open_executor(config_, 2 * n, /*leaders=*/1);
    seed_ticks([](NodeId v) {
        ValidatedEvent tick;
        tick.kind = ValidatedEventKind::kTick;
        tick.node = v;
        return tick;
    });
    run_events(config_, base, [this](double time, double) {
        if (config_.record_series) {
            result_.base.leader_generation.record(
                time, static_cast<double>(leader_->gen()));
        }
    });

    for (const Shard& shard : shards()) {
        base.good_ticks += shard.model.good_ticks;
        base.refresh_count += shard.model.refreshes;
        result_.commits += shard.model.commits;
        result_.aborts += shard.model.aborts;
    }
    base.leader_trace = leader_->trace();
    const std::uint64_t attempts = result_.commits + result_.aborts;
    result_.abort_rate =
        attempts == 0 ? 0.0
                      : static_cast<double>(result_.aborts) /
                            static_cast<double>(attempts);
    return std::move(result_);
}

ValidatedResult run_validated_single_leader(std::size_t n, std::uint32_t k,
                                            double alpha,
                                            const AsyncConfig& config,
                                            double message_rate,
                                            std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, 0xA552));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    ValidatedSingleLeaderSimulation simulation(
        assignment, config, sim::make_exponential_latency(config.lambda),
        sim::make_exponential_latency(message_rate), derive_seed(seed, 0x52));
    return simulation.run();
}

}  // namespace papc::async
