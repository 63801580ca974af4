#include "async/sequential_simulation.hpp"

#include "support/check.hpp"

namespace papc::async {

SequentialSingleLeaderSimulation::SequentialSingleLeaderSimulation(
    const Assignment& assignment, const AsyncConfig& config, std::uint64_t seed)
    : EventEngine(assignment, seed),
      config_(config),
      nodes_(initial_nodes(assignment)) {}

SequentialSingleLeaderSimulation::~SequentialSingleLeaderSimulation() = default;

std::size_t SequentialSingleLeaderSimulation::message_copies(
    Shard& shard, Generation* payload) {
    if (!msg_faults_on_) return 1;
    const fault::MessageFate fate = injector()->draw_fate(fault_rng_);
    fault::FaultCounters& faults = shard.counters.faults;
    if (fate.drop) {
        ++faults.lost;
        return 0;
    }
    if (fate.corrupt && payload != nullptr) {
        ++faults.corrupted;
        *payload = static_cast<Generation>(1 + fault_rng_.uniform_index(*payload));
    }
    if (fate.duplicate) {
        ++faults.duplicated;
        return 2;
    }
    return 1;
}

void SequentialSingleLeaderSimulation::on_event(Context& ctx, Shard& shard,
                                                double t, NodeId& /*unused*/) {
    // Sequentialization: the next tick anywhere in the system is an Exp(n)
    // race won by a uniformly random node drawn after the race —
    // memorylessness makes the winner independent of the race time. One
    // shard, so everything below is serial and may read/write live state
    // directly.
    const std::size_t n = nodes_.size();
    const double nd = static_cast<double>(n);
    Rng& rng = ctx.rng();
    const auto v_id = static_cast<NodeId>(rng.uniform_index(n));
    NodeState& v = nodes_[v_id];
    ++shard.counters.ticks;
    // A crashed node's tick races but acts on nothing.
    if (node_down(v_id, t)) {
        ++shard.counters.faults.crash_skips;
        ctx.emit(0, t + rng.exponential(nd), 0);
        return;
    }
    ++shard.model.good_ticks;  // channels are instant: every tick is good

    // Line 1: the 0-signal arrives instantly. Channels are instant, so a
    // straggler multiplier has nothing to stretch; loss and duplication
    // still apply.
    for (std::size_t copies = message_copies(shard, nullptr); copies > 0;
         --copies) {
        ++shard.counters.signals_delivered;
        if (!leader_down(t)) leader_->on_zero_signal(t);
    }

    // Lines 3-15 execute atomically at the tick.
    ++shard.counters.exchanges;
    const auto sample_peer = [&](NodeId self) {
        return static_cast<NodeId>(rng.uniform_index_excluding(n, self));
    };
    const NodeId p1 = sample_peer(v_id);
    const NodeId p2 = sample_peer(v_id);
    const ExchangeDecision decision = decide_exchange(
        v, leader_->gen(), leader_->prop(),
        PeerSample{nodes_[p1].gen, nodes_[p1].col},
        PeerSample{nodes_[p2].gen, nodes_[p2].col});
    const Generation old_gen = v.gen;
    const Opinion old_col = v.col;
    const bool changed =
        apply_decision(v, decision, leader_->gen(), leader_->prop());
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
        shard.moves.push_back(sim::CensusMove{old_gen, old_col, v.gen, v.col});
        PAPC_CHECK(v.gen <= leader_->gen());
        if (decision.send_gen_signal) {
            Generation sig_gen = v.gen;
            for (std::size_t copies = message_copies(shard, &sig_gen);
                 copies > 0; --copies) {
                ++shard.counters.signals_delivered;
                if (!leader_down(t)) leader_->on_gen_signal(t, sig_gen);
            }
        }
    }
    // Next global race; chains within the window while it lands before the
    // window end.
    ctx.emit(0, t + rng.exponential(nd), 0);
}

AsyncResult SequentialSingleLeaderSimulation::run() {
    const std::size_t n = nodes_.size();
    begin_run(config_.fault, config_.max_time);
    result_.leader_generation = TimeSeries("leader-generation");
    if (injector() != nullptr) {
        msg_faults_on_ = injector()->message_faults_active();
        fault_rng_ = injector()->serial_stream();
    }

    // With instant channels one full action fits in every tick: a "time
    // unit" collapses to one time step.
    result_.steps_per_unit = 1.0;
    leader_ = std::make_unique<Leader>(leader_config_for(
        config_, n, census().num_opinions(), result_.steps_per_unit));

    // Serial: a node atomically reads arbitrary other nodes at its tick, so
    // the executor degenerates to one windowed queue on one thread; the
    // window substreams alone pin determinism.
    open_executor(config_, 2, /*leaders=*/0, /*serial=*/true);
    // The first global Exp(n) race; the handler keeps exactly one pending.
    executor().seed(0, rng().exponential(static_cast<double>(n)), 0);
    run_events(config_, result_, [this](double time, double) {
        if (config_.record_series) {
            result_.leader_generation.record(
                time, static_cast<double>(leader_->gen()));
        }
    });

    const LeaderShardCounters& counters = shards().front().model;
    result_.good_ticks = counters.good_ticks;
    result_.refresh_count = counters.refreshes;
    result_.leader_trace = leader_->trace();
    return std::move(result_);
}

AsyncResult run_sequential_single_leader(std::size_t n, std::uint32_t k,
                                         double alpha, const AsyncConfig& config,
                                         std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, 0xA553));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    SequentialSingleLeaderSimulation simulation(assignment, config,
                                                derive_seed(seed, 0x53));
    return simulation.run();
}

}  // namespace papc::async
