#pragma once

/// \file event_engine.hpp
/// The skeleton every event-driven simulation runs on: async single-leader
/// (Algorithms 2 + 3), validated commits (§5), the sequentialized
/// reference, and the cluster multi-leader consensus phase (Algorithms
/// 4 + 5). They all run the same random process — per-node Poisson
/// clocks, channels whose delays follow a latency law, leaders reacting to
/// the signals they receive — so the wiring around that process lives
/// here once, in the split the ns-3 event model uses: the core owns the
/// loop, the models supply handlers.
///
/// EventEngine<Model, Event, Counters> owns:
///   - the GenerationCensus, the plurality opinion, the clock and the
///     core::Engine overrides;
///   - the fault::Injector, built from a FaultPlan via the pure
///     Rng::substream, so attaching it never shifts the tape (an all-zero
///     plan is byte-identical to no plan);
///   - the WindowedExecutor, built from the config fields every event
///     family shares (event_shards, threads, window, lambda);
///   - per-shard scratch (EventCounters, the model's Counters, and the
///     census moves of the current window), committed and folded in shard
///     order;
///   - the per-leader load windows behind leader_peak_load;
///   - advance() — begin window, run_window(handler), commit — and
///     run_events() — core::run, then the fold of every shared counter.
///
/// A model (CRTP) supplies its init (leader config or clustering), a
/// window snapshot `begin_window()`, the handler
/// `on_event(Context&, Shard&, double t, Event&)` and its result tail.
/// Models declare the handler `[[gnu::always_inline]] inline` and define
/// it, together with their constructor and destructor, in their .cpp: that
/// is the only translation unit that instantiates advance(), and the
/// handler inlines into the window loop as a lambda body would — no
/// virtual or out-of-line call per event.
///
/// Porting notes shared by every model (the windowed-executor contract,
/// sim/windowed_executor.hpp): one advance() executes one conservative
/// window, so RunResult::steps counts windows, not events. A node's events
/// run on its own shard, which is the only writer of that node; peer and
/// leader reads go through the window-start snapshots the model takes in
/// begin_window(); leader-bound signals are owned by leader_shard(leader);
/// census transitions are recorded per shard and merged in shard order at
/// the barrier. Fixed-seed trajectories are therefore bit-identical at
/// every thread count.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/observer.hpp"
#include "core/run_result.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "opinion/census.hpp"
#include "sim/windowed_executor.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace papc::sim {

/// Counters every event simulation reports. The families' result structs
/// derive from it, and each shard accumulates into its own instance.
struct EventCounters {
    std::uint64_t ticks = 0;              ///< Poisson ticks processed
    std::uint64_t exchanges = 0;          ///< completed exchanges
    std::uint64_t two_choices_count = 0;  ///< two-choices promotions
    std::uint64_t propagation_count = 0;  ///< propagation promotions
    Generation final_top_generation = 0;  ///< highest populated at the end

    // §4.5 complexity accounting.
    std::uint64_t signals_delivered = 0;  ///< signals reaching any leader
    double leader_peak_load = 0.0;        ///< max signals one leader got
                                          ///< in one time unit

    // Windowed-executor accounting.
    std::uint64_t events_processed = 0;   ///< total events across shards
    std::uint64_t windows = 0;            ///< conservative windows executed
    std::uint64_t window_stragglers = 0;  ///< cross-shard sends behind a
                                          ///< closed window

    // Fault-injection accounting (all zero without an active plan).
    fault::FaultCounters faults;
    std::uint64_t nodes_crashed = 0;  ///< nodes with a crash in the horizon

    /// Folds one shard's counters in: counts add, peaks take the max.
    void merge(const EventCounters& other) {
        ticks += other.ticks;
        exchanges += other.exchanges;
        two_choices_count += other.two_choices_count;
        propagation_count += other.propagation_count;
        final_top_generation =
            std::max(final_top_generation, other.final_top_generation);
        signals_delivered += other.signals_delivered;
        leader_peak_load = std::max(leader_peak_load, other.leader_peak_load);
        events_processed += other.events_processed;
        windows += other.windows;
        window_stragglers += other.window_stragglers;
        faults += other.faults;
        nodes_crashed += other.nodes_crashed;
    }
};

/// One old-gen/old-col -> new-gen/new-col move, recorded shard-locally
/// during a window and applied to the census at the barrier.
struct CensusMove {
    Generation old_gen;
    Opinion old_col;
    Generation new_gen;
    Opinion new_col;
};

template <typename Model, typename Event, typename Counters>
class EventEngine : public core::Engine {
public:
    using Context = typename WindowedExecutor<Event>::ShardContext;

    /// Shard-owned accumulation: counters for the whole run plus the
    /// census moves of the current window. Cache-line aligned so
    /// neighbouring shards never contend.
    struct alignas(64) Shard {
        EventCounters counters;
        Counters model;
        std::vector<CensusMove> moves;
    };

    bool advance() override {
        if (executor_->empty()) return false;
        Model& model = static_cast<Model&>(*this);
        model.begin_window();
        const bool ran = executor_->run_window(
            [this, &model](Context& ctx, double t, Event& ev) {
                model.on_event(ctx, shards_[ctx.shard()], t, ev);
            });
        for (Shard& shard : shards_) {
            for (const CensusMove& move : shard.moves) {
                census_.transition(move.old_gen, move.old_col, move.new_gen,
                                   move.new_col);
            }
            shard.moves.clear();
        }
        now_ = executor_->now();
        return ran;
    }
    [[nodiscard]] double now() const override { return now_; }
    [[nodiscard]] bool converged() const override { return census_.converged(); }
    [[nodiscard]] Opinion dominant() const override {
        return census_.pooled_stats().dominant;
    }
    [[nodiscard]] double opinion_fraction(Opinion j) const override {
        return census_.opinion_fraction(j);
    }

    [[nodiscard]] const GenerationCensus& census() const { return census_; }

protected:
    EventEngine(const Assignment& assignment, std::uint64_t seed)
        : rng_(seed), census_(assignment.size(), assignment.num_opinions) {
        PAPC_CHECK(assignment.size() >= 2);
        census_.reset(assignment.opinions);
        plurality_ = census_.pooled_stats().dominant;
    }

    /// Marks the single run as started and builds the injector for `plan`
    /// over [0, horizon] from the run generator's current state (read,
    /// never advanced).
    void begin_run(const fault::FaultPlan& plan, double horizon) {
        PAPC_CHECK(!ran_);
        ran_ = true;
        if (plan.active()) {
            injector_ = std::make_unique<fault::Injector>(
                plan, census_.population(), horizon, rng_);
            crash_on_ = injector_->crash_active();
        }
    }

    /// Builds the executor from the shared config fields; its base
    /// generator is split off rng_ here. `reserve_hint` is the expected
    /// number of pending events, `leaders` the number of leaders whose
    /// load record_leader_signal() tracks. A serial model runs one shard
    /// on one thread and draws its message faults itself, so no injector
    /// is attached.
    template <typename Config>
    void open_executor(const Config& config, std::size_t reserve_hint,
                       std::size_t leaders, bool serial = false) {
        WindowedOptions options;
        options.shards = serial ? 1 : config.event_shards;
        options.threads = serial ? 1 : config.threads;
        options.window = config.window;
        options.lambda = config.lambda;
        options.reserve_hint = reserve_hint;
        options.injector = serial ? nullptr : injector_.get();
        executor_ = std::make_unique<WindowedExecutor<Event>>(
            census_.population(), options, rng_.split());
        shards_.resize(executor_->num_shards());
        loads_.assign(leaders, LeaderLoad{});
    }

    /// Seeds every node's first rate-1 Poisson tick, node-ascending.
    template <typename MakeTick>
    void seed_ticks(MakeTick&& make_tick) {
        for (NodeId v = 0; v < census_.population(); ++v) {
            executor_->seed(executor_->shard_of(v), rng_.exponential(1.0),
                            make_tick(v));
        }
    }

    /// Drives core::run with `on_sample(time, plurality_fraction)` as the
    /// observer, then folds the shared counters into `result`.
    template <typename Config, typename Result, typename OnSample>
    void run_events(const Config& config, Result& result, OnSample&& on_sample) {
        core::EngineOptions options;
        options.max_time = config.max_time;
        options.sample_interval = config.sample_interval;
        options.record = config.record_series;
        options.plurality = plurality_;
        options.epsilon = config.epsilon;
        core::FunctionObserver observer(std::forward<OnSample>(on_sample));
        static_cast<core::RunResult&>(result) =
            core::run(*this, options, &observer);

        EventCounters& counters = result;
        for (const Shard& shard : shards_) counters.merge(shard.counters);
        for (const LeaderLoad& load : loads_) {
            counters.leader_peak_load = std::max(
                counters.leader_peak_load, static_cast<double>(load.count));
        }
        counters.faults += executor_->fault_counters();
        counters.events_processed = executor_->events_processed();
        counters.windows = executor_->windows_run();
        counters.window_stragglers = executor_->stragglers();
        counters.nodes_crashed =
            injector_ != nullptr ? injector_->nodes_crashed() : 0;
        counters.final_top_generation = census_.highest_populated();
    }

    /// Counts one signal arriving at `leader` and updates its per-time-unit
    /// load window (§4.5). Call only from leader_shard(leader).
    void record_leader_signal(Shard& shard, std::size_t leader, double time) {
        ++shard.counters.signals_delivered;
        LeaderLoad& load = loads_[leader];
        const auto bucket = static_cast<std::int64_t>(time);
        if (bucket != load.bucket) {
            shard.counters.leader_peak_load = std::max(
                shard.counters.leader_peak_load, static_cast<double>(load.count));
            load.bucket = bucket;
            load.count = 0;
        }
        ++load.count;
    }

    /// Shard that owns `leader`'s signal events and load window.
    [[nodiscard]] std::size_t leader_shard(std::size_t leader) const {
        return leader % executor_->num_shards();
    }

    /// True when node v is down at t (always false without crash faults).
    [[nodiscard]] bool node_down(NodeId v, double t) const {
        return crash_on_ && injector_->is_down(v, t);
    }

    /// True when the distinguished single leader is down at t.
    [[nodiscard]] bool leader_down(double t) const {
        return injector_ != nullptr && injector_->leader_down(t);
    }

    [[nodiscard]] const fault::Injector* injector() const {
        return injector_.get();
    }
    [[nodiscard]] Rng& rng() { return rng_; }
    [[nodiscard]] WindowedExecutor<Event>& executor() { return *executor_; }
    [[nodiscard]] const std::vector<Shard>& shards() const { return shards_; }

    /// No window snapshot by default (serial models read live state).
    void begin_window() {}

private:
    /// One leader's congestion window; touched only by its owning shard.
    struct LeaderLoad {
        std::int64_t bucket = -1;
        std::uint64_t count = 0;
    };

    Rng rng_;
    GenerationCensus census_;
    Opinion plurality_ = 0;
    double now_ = 0.0;
    bool ran_ = false;
    std::unique_ptr<fault::Injector> injector_;
    bool crash_on_ = false;
    std::unique_ptr<WindowedExecutor<Event>> executor_;
    std::vector<Shard> shards_;
    std::vector<LeaderLoad> loads_;
};

}  // namespace papc::sim
