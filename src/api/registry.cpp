#include "api/registry.hpp"

#include <algorithm>
#include <utility>

#include "async/sequential_simulation.hpp"
#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "cluster/clustering.hpp"
#include "cluster/simulation.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "population/four_state.hpp"
#include "population/k_undecided.hpp"
#include "population/three_state.hpp"
#include "sim/event_engine.hpp"
#include "sim/latency.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"

namespace papc::api {

namespace {

Assignment build_assignment(const Scenario& s, Rng& rng) {
    switch (s.workload) {
        case Workload::kBiased:
            return make_biased_plurality(s.n, s.k, s.alpha, rng);
        case Workload::kTwoFrontRunners:
            return make_two_front_runners(s.n, s.k, s.alpha, s.tail_fraction,
                                          rng);
        case Workload::kAdditiveGap:
            return make_additive_gap(s.n, s.k, s.gap > 0 ? s.gap : s.n / 10,
                                     rng);
        case Workload::kUniform:
            return make_uniform(s.n, s.k, rng);
        case Workload::kZipf:
            return make_zipf(s.n, s.k, s.zipf_s, rng);
    }
    PAPC_CHECK(false);
    return {};
}

// ------------------------------------------------------------- fault layer

/// Every protocol consumes the same scenario fault knobs and reports the
/// same fault-counter extras — zeros when the plan is inactive — so a
/// degradation sweep can compare cells across families without
/// special-casing keys (and the registry test's produced == declared pin
/// stays a single uniform rule).
const std::vector<std::string> kFaultKnobs = {
    "fault_loss",          "fault_dup",
    "fault_corrupt",       "fault_crash_rate",
    "fault_recover_rate",  "fault_straggler_frac",
    "fault_straggler_scale", "byzantine_frac",
    "byzantine_policy"};

std::vector<std::string> with_fault_knobs(std::vector<std::string> knobs) {
    knobs.insert(knobs.end(), kFaultKnobs.begin(), kFaultKnobs.end());
    return knobs;
}

/// The fault tallies of one run, whatever the family.
struct FaultTally {
    fault::FaultCounters counters;
    std::uint64_t nodes_crashed = 0;
    std::uint64_t byzantine_nodes = 0;
};

// ------------------------------------------------------------------ extras
//
// One visit_extras overload per result struct declares its extras: it
// calls emit(key, value) once per key. Both the extras map of a run and
// the ProtocolInfo name list derive from it, so each key is spelled once.

template <typename Emit>
void visit_extras(const FaultTally& r, Emit&& emit) {
    emit("faults_injected", r.counters.total());
    emit("messages_lost", r.counters.lost);
    emit("messages_duplicated", r.counters.duplicated);
    emit("messages_corrupted", r.counters.corrupted);
    emit("messages_delayed", r.counters.delayed);
    emit("crash_skips", r.counters.crash_skips);
    emit("nodes_crashed", r.nodes_crashed);
    emit("byzantine_nodes", r.byzantine_nodes);
}

template <typename Emit>
void visit_extras(const sim::EventCounters& r, Emit&& emit) {
    emit("ticks", r.ticks);
    emit("exchanges", r.exchanges);
    emit("two_choices", r.two_choices_count);
    emit("propagation", r.propagation_count);
    emit("final_top_generation", r.final_top_generation);
    emit("signals_delivered", r.signals_delivered);
    emit("leader_peak_load", r.leader_peak_load);
    emit("events_processed", r.events_processed);
    emit("windows", r.windows);
    emit("window_stragglers", r.window_stragglers);
    // Byzantine reporting is a sampling-layer fault; the event-driven
    // families have no sampled-state channel to lie on, so the count is
    // structurally zero there.
    visit_extras(FaultTally{r.faults, r.nodes_crashed, 0}, emit);
}

template <typename Emit>
void visit_extras(const async::AsyncResult& r, Emit&& emit) {
    emit("good_ticks", r.good_ticks);
    emit("refreshes", r.refresh_count);
    emit("steps_per_unit", r.steps_per_unit);
    emit("channels_opened", r.channels_opened);
    visit_extras(static_cast<const sim::EventCounters&>(r), emit);
}

template <typename Emit>
void visit_extras(const async::ValidatedResult& r, Emit&& emit) {
    emit("commits", r.commits);
    emit("aborts", r.aborts);
    emit("abort_rate", r.abort_rate);
    visit_extras(r.base, emit);
}

template <typename Emit>
void visit_extras(const cluster::MultiLeaderResult& r, Emit&& emit) {
    emit("clustering_time", r.clustering_time);
    emit("active_clusters", r.clustering.num_active);
    emit("fraction_clustered", r.clustering.fraction_clustered);
    emit("finished_fraction", r.finished_fraction);
    emit("finished_adoptions", r.finished_adoptions);
    emit("total_time", r.total_time());
    visit_extras(static_cast<const sim::EventCounters&>(r), emit);
}

template <typename Result>
std::map<std::string, double> extras_of(const Result& result) {
    std::map<std::string, double> extras;
    visit_extras(result, [&](const char* key, auto value) {
        extras[key] = static_cast<double>(value);
    });
    return extras;
}

template <typename Result>
std::vector<std::string> extra_names() {
    std::vector<std::string> names;
    visit_extras(Result(), [&](const char* key, auto) { names.emplace_back(key); });
    return names;
}

// ------------------------------------------------------------- sync family

using SyncFactory = std::unique_ptr<sync::SyncDynamics> (*)(const Scenario&,
                                                            const Assignment&);

/// Shared driver for the synchronous dynamics. The RNG scheme (run rng
/// seeded directly, workload rng from derive_seed(seed, 1)) matches what
/// papc_cli has always done, so historical CLI invocations reproduce.
ScenarioResult run_sync_family(const Scenario& s, std::uint64_t seed,
                               SyncFactory factory) {
    Rng rng(seed);
    Rng workload_rng(derive_seed(seed, 1));
    const Assignment assignment = build_assignment(s, workload_rng);
    const std::unique_ptr<sync::SyncDynamics> dynamics =
        factory(s, assignment);

    sync::RunOptions options;
    if (s.max_steps > 0) options.max_rounds = s.max_steps;
    options.record_every =
        s.record_series ? (s.record_every > 0 ? s.record_every : 1) : 0;
    options.epsilon = s.epsilon;
    options.plurality = 0;

    // Fault layer: the injector reads `rng` through pure substreams (the
    // parent is never advanced), so a zero plan leaves the trajectory
    // byte-identical to the fault-free run.
    const fault::FaultPlan plan = fault_plan(s);
    std::unique_ptr<fault::Injector> injector;
    if (plan.active()) {
        injector = std::make_unique<fault::Injector>(
            plan, s.n, static_cast<double>(options.max_rounds), rng);
        dynamics->set_fault_injector(injector.get());
    }

    ScenarioResult out;
    out.run = sync::run_to_consensus(*dynamics, rng, options);
    FaultTally tally;
    tally.counters.crash_skips = dynamics->fault_crash_skips();
    tally.nodes_crashed = injector ? injector->nodes_crashed() : 0;
    tally.byzantine_nodes = injector ? injector->byzantine_count() : 0;
    out.extras = extras_of(tally);
    return out;
}

// ------------------------------------------------------- population family

const std::uint64_t kPopulationWorkloadSalt = 0xB00;
const std::uint64_t kPopulationRunSalt = 0xB1;

/// Per-opinion counts of the workload assignment (the population protocols
/// take counts, not per-node vectors; the node shuffle is irrelevant to
/// their exchangeable dynamics).
std::vector<std::size_t> workload_counts(const Scenario& s,
                                         std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, kPopulationWorkloadSalt));
    const Assignment assignment = build_assignment(s, workload_rng);
    std::vector<std::size_t> counts(s.k, 0);
    for (const Opinion opinion : assignment.opinions) ++counts[opinion];
    return counts;
}

/// Registers one population protocol: `make(counts)` builds it from the
/// workload's per-opinion counts, and `final_value(protocol)` reads its
/// one family extra, `final_name`, after the run.
template <typename Make, typename Final>
void register_population(ProtocolRegistry& registry, ProtocolInfo info,
                         const char* final_name, Make make, Final final_value) {
    info.extra_metrics = extra_names<FaultTally>();
    info.extra_metrics.insert(info.extra_metrics.begin(), final_name);
    registry.register_protocol(
        std::move(info), [=](const Scenario& s, std::uint64_t seed) {
            auto protocol = make(workload_counts(s, seed));
            Rng rng(derive_seed(seed, kPopulationRunSalt));
            population::PopulationRunOptions options;
            options.max_interactions = s.max_steps;
            options.record_every =
                s.record_series ? (s.record_every > 0 ? s.record_every : s.n)
                                : 0;
            options.epsilon = s.epsilon;
            options.plurality = 0;
            const fault::FaultPlan plan = fault_plan(s);
            FaultTally tally;
            options.fault = &plan;
            options.fault_counters = &tally.counters;
            options.nodes_crashed = &tally.nodes_crashed;
            options.byzantine_nodes = &tally.byzantine_nodes;
            ScenarioResult out;
            out.run = population::run_population(protocol, rng, options);
            out.extras = extras_of(tally);
            out.extras[final_name] = static_cast<double>(final_value(protocol));
            return out;
        });
}

// ------------------------------------------------------------ async family

async::AsyncConfig async_config_from(const Scenario& s) {
    async::AsyncConfig config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = s.record_series;
    config.queue_kind = s.queue_kind;
    config.threads = s.threads;
    config.window = s.window;
    config.fault = fault_plan(s);
    return config;
}

// ---------------------------------------------------------- cluster family

cluster::ClusterConfig cluster_config_from(const Scenario& s) {
    cluster::ClusterConfig config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = s.record_series;
    config.queue_kind = s.queue_kind;
    config.threads = s.threads;
    config.window = s.window;
    config.fault = fault_plan(s);
    return config;
}

// ----------------------------------------------------------- registration

void register_builtins(ProtocolRegistry& registry) {
    const std::vector<std::string> sync_knobs =
        with_fault_knobs({"threads", "max-steps", "record-every"});
    const std::vector<std::string> population_knobs =
        with_fault_knobs({"max-steps", "record-every"});
    const std::vector<std::string> event_knobs = with_fault_knobs(
        {"lambda", "max-time", "sample-interval", "queue", "threads",
         "window"});
    const std::vector<std::string> sync_extras = extra_names<FaultTally>();

    // --- synchronous round dynamics -------------------------------------
    registry.register_protocol(
        ProtocolInfo{"sync", "sync",
                     "Algorithm 1 (generation-based synchronous protocol)",
                     with_fault_knobs(
                         {"gamma", "threads", "max-steps", "record-every"}),
                     sync_extras,
                     2, 0, 2, /*needs_n_above_k=*/true},
        [](const Scenario& s, std::uint64_t seed) {
            return run_sync_family(
                s, seed,
                [](const Scenario& scenario, const Assignment& assignment)
                    -> std::unique_ptr<sync::SyncDynamics> {
                    sync::ScheduleParams params;
                    params.n = scenario.n;
                    params.k = scenario.k;
                    params.alpha = std::max(scenario.alpha, 1.01);
                    params.gamma = scenario.gamma;
                    return std::make_unique<sync::Algorithm1>(
                        assignment, sync::Schedule(params), scenario.threads);
                });
        });
    registry.register_protocol(
        ProtocolInfo{"two-choices", "sync",
                     "two-choices voting baseline [CER14]",
                     sync_knobs,
                     sync_extras,
                     2, 0},
        [](const Scenario& s, std::uint64_t seed) {
            return run_sync_family(
                s, seed,
                [](const Scenario& scenario, const Assignment& assignment)
                    -> std::unique_ptr<sync::SyncDynamics> {
                    return std::make_unique<sync::TwoChoices>(assignment,
                                                         scenario.threads);
                });
        });
    registry.register_protocol(
        ProtocolInfo{"3-majority", "sync",
                     "3-majority baseline [BCN+14]",
                     sync_knobs,
                     sync_extras,
                     2, 0},
        [](const Scenario& s, std::uint64_t seed) {
            return run_sync_family(
                s, seed,
                [](const Scenario& scenario, const Assignment& assignment)
                    -> std::unique_ptr<sync::SyncDynamics> {
                    return std::make_unique<sync::ThreeMajority>(assignment,
                                                         scenario.threads);
                });
        });
    registry.register_protocol(
        ProtocolInfo{"undecided", "sync",
                     "undecided-state dynamics baseline [AAE08, BCN+15]",
                     sync_knobs,
                     sync_extras,
                     2, 0},
        [](const Scenario& s, std::uint64_t seed) {
            return run_sync_family(
                s, seed,
                [](const Scenario& scenario, const Assignment& assignment)
                    -> std::unique_ptr<sync::SyncDynamics> {
                    return std::make_unique<sync::UndecidedState>(assignment,
                                                         scenario.threads);
                });
        });
    registry.register_protocol(
        ProtocolInfo{"pull", "sync",
                     "pull-voting baseline [HP01, NIY99]",
                     sync_knobs,
                     sync_extras,
                     2, 0},
        [](const Scenario& s, std::uint64_t seed) {
            return run_sync_family(
                s, seed,
                [](const Scenario& scenario, const Assignment& assignment)
                    -> std::unique_ptr<sync::SyncDynamics> {
                    return std::make_unique<sync::PullVoting>(assignment,
                                                         scenario.threads);
                });
        });

    // --- population protocols -------------------------------------------
    register_population(
        registry,
        ProtocolInfo{"pp-3-state", "population",
                     "3-state approximate majority [AAE08]", population_knobs,
                     {}, 2, 2},
        "blank_final",
        [](const std::vector<std::size_t>& counts) {
            return population::ThreeStateMajority(counts[0], counts[1]);
        },
        [](const population::ThreeStateMajority& p) { return p.count_blank(); });
    register_population(
        registry,
        ProtocolInfo{"pp-4-state", "population",
                     "4-state exact majority [DV10, MNRS14]", population_knobs,
                     {}, 2, 2},
        "strong_difference",
        [](const std::vector<std::size_t>& counts) {
            return population::FourStateExactMajority(counts[0], counts[1]);
        },
        [](const population::FourStateExactMajority& p) {
            return p.strong_difference();
        });
    register_population(
        registry,
        ProtocolInfo{"pp-undecided", "population",
                     "k-opinion undecided-state population protocol [BCN+15]",
                     population_knobs, {}, 2, 0},
        "undecided_final",
        [](const std::vector<std::size_t>& counts) {
            return population::KUndecided(counts);
        },
        [](const population::KUndecided& p) { return p.undecided_count(); });

    // --- asynchronous single-leader family ------------------------------
    // Every event protocol sizes its generations by the closed-form G*,
    // which needs n > max(2, k).
    registry.register_protocol(
        ProtocolInfo{"async", "async",
                     "asynchronous single-leader protocol (Algorithms 2+3)",
                     event_knobs, extra_names<async::AsyncResult>(), 2, 0, 2,
                     true},
        [](const Scenario& s, std::uint64_t seed) {
            // Same seed salts as async::run_single_leader, so the biased
            // workload reproduces it bit-for-bit (pinned by the api tests).
            Rng workload_rng(derive_seed(seed, 0xA551));
            const Assignment assignment = build_assignment(s, workload_rng);
            async::SingleLeaderSimulation simulation(
                assignment, async_config_from(s), derive_seed(seed, 0x51));
            const async::AsyncResult r = simulation.run();
            return ScenarioResult{r, extras_of(r)};
        });
    registry.register_protocol(
        ProtocolInfo{"sequential", "async",
                     "sequentialized single-leader reference (instant channels)",
                     with_fault_knobs(
                         {"max-time", "sample-interval", "window"}),
                     extra_names<async::AsyncResult>(), 2, 0, 2, true},
        [](const Scenario& s, std::uint64_t seed) {
            Rng workload_rng(derive_seed(seed, 0xA553));
            const Assignment assignment = build_assignment(s, workload_rng);
            async::SequentialSingleLeaderSimulation simulation(
                assignment, async_config_from(s), derive_seed(seed, 0x53));
            const async::AsyncResult r = simulation.run();
            return ScenarioResult{r, extras_of(r)};
        });
    registry.register_protocol(
        ProtocolInfo{"validated", "async",
                     "single-leader with validated commits under message "
                     "latencies (Section 5)",
                     with_fault_knobs(
                         {"lambda", "msg-rate", "max-time",
                          "sample-interval", "queue", "threads", "window"}),
                     extra_names<async::ValidatedResult>(), 2, 0, 2, true},
        [](const Scenario& s, std::uint64_t seed) {
            Rng workload_rng(derive_seed(seed, 0xA552));
            const Assignment assignment = build_assignment(s, workload_rng);
            async::ValidatedSingleLeaderSimulation simulation(
                assignment, async_config_from(s),
                sim::make_exponential_latency(s.lambda),
                sim::make_exponential_latency(s.msg_rate),
                derive_seed(seed, 0x52));
            const async::ValidatedResult r = simulation.run();
            return ScenarioResult{r.base, extras_of(r)};
        });

    // --- decentralized multi-leader protocol ----------------------------
    // The clustering phase needs at least 16 nodes.
    registry.register_protocol(
        ProtocolInfo{"multi", "cluster",
                     "decentralized multi-leader protocol (Algorithms 4+5)",
                     event_knobs, extra_names<cluster::MultiLeaderResult>(), 2,
                     0, 16, true},
        [](const Scenario& s, std::uint64_t seed) {
            // Same seed salts as cluster::run_multi_leader (bit-identical
            // for the biased workload).
            Rng workload_rng(derive_seed(seed, 0xC1A0));
            const Assignment assignment = build_assignment(s, workload_rng);
            const cluster::ClusterConfig config = cluster_config_from(s);
            Rng clustering_rng(derive_seed(seed, 0xC1A1));
            cluster::ClusteringResult clustering =
                cluster::run_clustering(s.n, config, clustering_rng);
            cluster::MultiLeaderSimulation simulation(
                assignment, std::move(clustering), config,
                derive_seed(seed, 0xC1A2));
            const cluster::MultiLeaderResult r = simulation.run();
            return ScenarioResult{r, extras_of(r)};
        });
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::instance() {
    static ProtocolRegistry* registry = [] {
        auto* built = new ProtocolRegistry();
        register_builtins(*built);
        return built;
    }();
    return *registry;
}

void ProtocolRegistry::register_protocol(ProtocolInfo info, RunFn fn) {
    PAPC_CHECK(!info.name.empty());
    PAPC_CHECK(find(info.name) == nullptr);
    PAPC_CHECK(fn != nullptr);
    entries_.push_back(Entry{std::move(info), std::move(fn)});
}

const ProtocolInfo* ProtocolRegistry::find(const std::string& name) const {
    for (const Entry& entry : entries_) {
        if (entry.info.name == name) return &entry.info;
    }
    return nullptr;
}

std::vector<std::string> ProtocolRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_) out.push_back(entry.info.name);
    std::sort(out.begin(), out.end());
    return out;
}

ScenarioResult ProtocolRegistry::run(const Scenario& scenario,
                                     std::uint64_t seed) const {
    PAPC_CHECK(check(scenario).empty());
    for (const Entry& entry : entries_) {
        if (entry.info.name == scenario.protocol) {
            return entry.fn(scenario, seed);
        }
    }
    PAPC_CHECK(false);
    ScenarioResult unreachable;
    return unreachable;
}

std::vector<std::string> ProtocolRegistry::check(
    const Scenario& scenario) const {
    std::vector<std::string> problems = validate(scenario);
    const ProtocolInfo* info = find(scenario.protocol);
    if (info == nullptr) {
        problems.push_back("unknown protocol '" + scenario.protocol +
                           "' (see --list-protocols)");
        return problems;
    }
    if (scenario.k < info->min_k ||
        (info->max_k > 0 && scenario.k > info->max_k)) {
        problems.push_back(
            "protocol '" + info->name + "' requires k in [" +
            std::to_string(info->min_k) + ", " +
            (info->max_k > 0 ? std::to_string(info->max_k) : "inf") +
            "], got " + std::to_string(scenario.k));
    }
    if (scenario.n < info->min_n) {
        problems.push_back("protocol '" + info->name + "' requires n >= " +
                           std::to_string(info->min_n) + ", got " +
                           std::to_string(scenario.n));
    }
    if (info->needs_n_above_k &&
        scenario.n <= std::max<std::size_t>(2, scenario.k)) {
        problems.push_back("protocol '" + info->name +
                           "' requires n > max(2, k), got n = " +
                           std::to_string(scenario.n) + ", k = " +
                           std::to_string(scenario.k));
    }
    return problems;
}

ScenarioResult run(const Scenario& scenario, std::uint64_t seed) {
    return ProtocolRegistry::instance().run(scenario, seed);
}

void write_json(JsonWriter& writer, const Scenario& scenario,
                std::uint64_t seed, const ScenarioResult& result) {
    writer.begin_object();
    writer.key("scenario");
    write_json(writer, scenario);
    writer.kv("seed", seed);
    writer.key("result");
    core::write_json(writer, result.run);
    writer.key("extras");
    writer.begin_object();
    for (const auto& [name, value] : result.extras) {
        writer.kv(name, value);
    }
    writer.end_object();
    writer.end_object();
}

}  // namespace papc::api
