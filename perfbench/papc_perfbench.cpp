/// \file papc_perfbench.cpp
/// The repo benchmark: fixed-seed `api::run` / `api::run_sweep` workloads,
/// timed end to end, plus a traced run that breaks them into per-layer
/// numbers. perfbench/run.py builds and drives this binary; see
/// perfbench/README.md for the workloads, metrics and output format.
///
///   papc_perfbench --workload sync-large --seed 1 --seconds 10 --trace 0
///
/// Untraced (--trace 0): three set-ups (registry, scenario checks, one
/// warm-up pass over the run set), then timed passes over the same run set
/// for --seconds (at least kMinSamples). Every run is checked.
/// Traced (--trace 1): every workload once untraced and once with spans,
/// the threads 1-vs-2 identity re-runs, and the layer microbenchmarks.
/// The result is one JSON object, written to --out (default: stdout).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "core/run_result.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "opinion/census.hpp"
#include "sim/scheduler_queue.hpp"
#include "sim/windowed_executor.hpp"
#include "support/cpu.hpp"
#include "support/json_value.hpp"
#include "support/json_writer.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"
#include "sync/round_kernel.hpp"
#include "sync/schedule.hpp"

namespace {

using namespace papc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

constexpr std::size_t kSetups = 3;      // set-ups per run; setup_s = median
constexpr std::size_t kMinSamples = 2;  // timed passes at least

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/// Keeps a value alive past the optimizer without a volatile store per op.
template <typename T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

// ------------------------------------------------------------------ spans

/// One traced interval: a call from this file into a layer's public API.
struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since process start
    double end = 0.0;
    int parent = -1;     ///< index into the span list, -1 = root
    int run_id = 0;      ///< spans of one api::run / sweep share an id
};

/// In-memory span recorder (single thread: the benchmark's main thread).
/// A null Tracer* means tracing is off; Scope is then a no-op.
class Tracer {
public:
    int open(const std::string& name, int run_id) {
        Span span;
        span.name = name;
        span.start = since(kProcessStart);
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.run_id = run_id;
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }
    void close(int id) {
        spans_[static_cast<std::size_t>(id)].end = since(kProcessStart);
        stack_.pop_back();
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    [[nodiscard]] double duration(int id) const {
        const Span& s = spans_[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }
    /// Sum of the durations of `id`'s direct children.
    [[nodiscard]] double children_time(int id) const {
        double children = 0.0;
        for (const Span& s : spans_) {
            if (s.parent == id) children += s.end - s.start;
        }
        return children;
    }
    /// Every span's self time: its duration minus the time its direct
    /// children cover.
    [[nodiscard]] std::vector<double> self_times() const {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] += duration(static_cast<int>(i));
            if (spans_[i].parent >= 0) {
                self[static_cast<std::size_t>(spans_[i].parent)] -=
                    duration(static_cast<int>(i));
            }
        }
        return self;
    }

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class Scope {
public:
    Scope(Tracer* tracer, const std::string& name, int run_id)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->open(name, run_id) : -1) {}
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span early; returns its index (-1 when untraced).
    int end() {
        if (tracer_ != nullptr && !closed_) {
            tracer_->close(id_);
            closed_ = true;
        }
        return id_;
    }

private:
    Tracer* tracer_;
    int id_;
    bool closed_ = false;
};

// -------------------------------------------------------------- workloads

const std::vector<std::string> kWorkloads = {"sync-large", "event-1t",
                                             "event-2t-faulted",
                                             "sweep-small"};

const std::vector<std::string> kSweepProtocols = {
    "pp-3-state", "pp-4-state", "pp-undecided", "3-majority",
    "undecided",  "sync",       "two-choices",  "sequential"};

struct Job {
    api::Scenario scenario;
    std::uint64_t seed = 0;
};

/// A workload's fixed run set: api::run jobs, or one sweep.
struct WorkloadSpec {
    std::string name;
    std::vector<Job> jobs;
    bool is_sweep = false;
    api::Sweep sweep;
    std::size_t sweep_cells = 0;
    /// Large workloads fail a run that does not converge or whose
    /// plurality loses. In the sweep, both are protocol outcomes at small
    /// n (`sequential` at n = 512 can reach its last generation without
    /// consensus), counted and not failed.
    bool strict = true;

    [[nodiscard]] std::size_t runs_per_pass() const {
        return is_sweep ? sweep_cells * sweep.reps : jobs.size();
    }
};

api::Scenario base_scenario(const std::string& protocol, std::size_t n,
                            std::uint32_t k) {
    api::Scenario s;
    s.protocol = protocol;
    s.n = n;
    s.k = k;
    s.record_series = false;
    return s;
}

/// Builds the run set from the base seed. `smoke` shrinks every size to
/// the minimum that still exercises the same code paths.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed,
                           bool smoke) {
    WorkloadSpec w;
    w.name = name;
    const auto pick = [smoke](std::size_t full, std::size_t tiny) {
        return smoke ? tiny : full;
    };
    std::vector<api::Scenario> scenarios;
    if (name == "sync-large") {
        for (const auto& [protocol, n] :
             {std::pair<const char*, std::size_t>{"sync",
                                                  pick(1u << 20, 1u << 12)},
              {"two-choices", pick(1u << 22, 1u << 12)}}) {
            api::Scenario s = base_scenario(protocol, n, 8);
            s.alpha = 1.5;
            s.threads = 2;
            scenarios.push_back(s);
        }
    } else if (name == "event-1t") {
        scenarios.push_back(base_scenario("async", pick(1u << 15, 1u << 9), 4));
        scenarios.push_back(
            base_scenario("validated", pick(1u << 14, 1u << 9), 4));
    } else if (name == "event-2t-faulted") {
        for (const char* protocol : {"async", "multi"}) {
            api::Scenario s = base_scenario(protocol, pick(1u << 15, 1u << 9), 4);
            s.threads = 2;
            s.fault_loss = 0.02;
            s.fault_straggler_frac = 0.05;
            s.fault_straggler_scale = 2.0;
            scenarios.push_back(s);
        }
    } else if (name == "sweep-small") {
        w.is_sweep = true;
        w.strict = false;
        w.sweep.base = base_scenario("sync", 512, 2);
        w.sweep.base.alpha = 1.5;
        // Only `sequential` reads max_time here. Its converging trials end
        // by t = 40 at these sizes, so 300 changes no trial's result; a
        // trial stuck at its last generation idles to 300, not 3000.
        w.sweep.base.max_time = 300.0;
        w.sweep.axes = {
            {"protocol", kSweepProtocols},
            {"n", {"512", "1024"}}};
        w.sweep.reps = smoke ? 2 : 320;
        w.sweep.base_seed = seed;
        w.sweep.threads = 1;
        std::vector<api::SweepCell> cells;
        if (!api::expand(w.sweep, &cells).empty()) {
            throw std::runtime_error("sweep spec does not expand");
        }
        w.sweep_cells = cells.size();
        for (const api::SweepCell& cell : cells) {
            scenarios.push_back(cell.scenario);  // checked in set-up
        }
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    for (const api::Scenario& s : scenarios) {
        w.jobs.push_back(Job{s, derive_seed(seed, w.jobs.size() + 1)});
    }
    return w;
}

// ------------------------------------------------------------ run checks

struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t plurality_losses = 0;  ///< sweep outcome, not a failure
    std::uint64_t unconverged = 0;       ///< sweep outcome, not a failure
    std::vector<std::string> problems;   ///< first few failure messages

    void fail(std::uint64_t count, const std::string& why) {
        failed += count;
        if (problems.size() < 8) problems.push_back(why);
    }
};

/// Outcome of one api::run: the checked result and its serialization.
struct JobOutcome {
    api::ScenarioResult result;
    std::string serialized;
};

/// Runs one job through api::run and checks it; failures go to `tally`.
/// `strict` = WorkloadSpec::strict.
bool run_job(const Job& job, bool strict, Tally& tally, JobOutcome* out) {
    ++tally.attempted;
    const std::string label =
        job.scenario.protocol + " n=" + std::to_string(job.scenario.n);
    try {
        api::ScenarioResult r = api::run(job.scenario, job.seed);
        if (!core::consistent(r.run)) {
            tally.fail(1, label + ": core::consistent failed");
            return false;
        }
        if (!r.run.converged) {
            if (strict) {
                tally.fail(1, label + ": no convergence within budget");
                return false;
            }
            ++tally.unconverged;
        } else if (!r.run.plurality_won) {
            if (strict) {
                tally.fail(1, label + ": plurality lost");
                return false;
            }
            ++tally.plurality_losses;
        }
        if (out != nullptr) {
            out->serialized = core::serialize(r.run);
            out->result = std::move(r);
        }
        return true;
    } catch (const std::exception& e) {
        tally.fail(1, label + ": threw " + e.what());
        return false;
    }
}

/// One sweep pass: run_sweep, JSON emit, JSON parse, round-trip check.
struct SweepPass {
    api::SweepResult table;
    std::string json;
};

void check_sweep(const WorkloadSpec& w, const SweepPass& pass, Tally& tally) {
    const std::size_t reps = w.sweep.reps;
    tally.attempted += w.sweep_cells * reps;
    if (pass.table.cells.size() != w.sweep_cells) {
        tally.fail(w.sweep_cells * reps, "sweep: wrong cell count");
        return;
    }
    const JsonParseResult parsed = parse_json(pass.json);
    const JsonValue* cells = parsed.ok() ? parsed.value.find("cells") : nullptr;
    if (cells == nullptr || !cells->is_array() ||
        cells->size() != pass.table.cells.size()) {
        tally.fail(w.sweep_cells * reps, "sweep: JSON does not round-trip");
        return;
    }
    for (std::size_t i = 0; i < pass.table.cells.size(); ++i) {
        const api::SweepCell& cell = pass.table.cells[i];
        const std::string label = "sweep cell " + std::to_string(i);
        const JsonValue& jcell = (*cells)[i];
        const JsonValue* coords = jcell.find("coordinates");
        bool coords_ok = coords != nullptr && coords->is_object() &&
                         jcell.find("outcome") != nullptr &&
                         coords->members().size() == cell.coordinates.size();
        for (const auto& [field, value] : cell.coordinates) {
            const JsonValue* v = coords_ok ? coords->find(field) : nullptr;
            coords_ok = coords_ok && v != nullptr && v->is_string() &&
                        v->as_string() == value;
        }
        if (!coords_ok) {
            tally.fail(reps, label + ": coordinates lost in JSON");
            continue;
        }
        const runner::ExperimentOutcome& outcome = cell.outcome;
        if (outcome.repetitions != reps) {
            tally.fail(reps, label + ": wrong repetition count");
            continue;
        }
        const double converged = outcome.mean("converged") * double(reps);
        const double won = outcome.mean("plurality_won") * double(reps);
        tally.unconverged +=
            static_cast<std::uint64_t>(double(reps) - converged + 0.5);
        tally.plurality_losses +=
            static_cast<std::uint64_t>(converged - won + 0.5);
    }
}

/// One pass over the run set: the unit every timed sample repeats.
/// `outcomes` (when non-null) receives each api::run job's result.
void run_pass(const WorkloadSpec& w, Tally& tally, Tracer* tracer,
              std::vector<JobOutcome>* outcomes, SweepPass* sweep_out) {
    if (w.is_sweep) {
        SweepPass pass;
        {
            Scope span(tracer, "api.run_sweep", 0);
            pass.table = api::run_sweep(w.sweep);
        }
        {
            Scope span(tracer, "api.write_json", 0);
            JsonWriter writer;
            api::write_json(writer, pass.table);
            pass.json = writer.str();
        }
        {
            Scope span(tracer, "support.parse_json", 0);
            check_sweep(w, pass, tally);
        }
        if (sweep_out != nullptr) *sweep_out = std::move(pass);
        return;
    }
    if (outcomes != nullptr) {
        outcomes->clear();
        outcomes->resize(w.jobs.size());
    }
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        Scope span(tracer, "api.run", static_cast<int>(j + 1));
        run_job(w.jobs[j], w.strict, tally,
                outcomes != nullptr ? &(*outcomes)[j] : nullptr);
    }
}

/// Registry check of every scenario in the run set (part of set-up).
void check_scenarios(const WorkloadSpec& w) {
    const api::ProtocolRegistry& registry = api::ProtocolRegistry::instance();
    for (const Job& job : w.jobs) {
        const std::vector<std::string> problems = registry.check(job.scenario);
        if (!problems.empty()) {
            throw std::runtime_error("scenario rejected: " + problems.front());
        }
    }
}

/// Every pass must reproduce the first pass's sweep table byte for byte.
void check_repeat(const SweepPass& reference, const SweepPass& again,
                  Tally& tally) {
    if (again.json != reference.json) {
        tally.fail(1, "sweep table differs between passes");
    }
}

/// Every pass must reproduce the first pass's results exactly.
void check_repeat(const std::vector<JobOutcome>& reference,
                  const std::vector<JobOutcome>& again, Tally& tally) {
    for (std::size_t j = 0; j < again.size() && j < reference.size(); ++j) {
        if (!again[j].serialized.empty() &&
            (again[j].serialized != reference[j].serialized ||
             again[j].result.extras != reference[j].result.extras)) {
            tally.fail(1, "job " + std::to_string(j) +
                              ": result differs between passes");
        }
    }
}

/// Replays every (cell, rep) of a sweep pass through api::run with the
/// sweep's own trial seeds: checks each run and that the replay
/// reproduces the cell's aggregated steps. Returns per-cell seconds/steps.
struct ReplayCell {
    double seconds = 0.0;
    double steps = 0.0;
};
std::vector<ReplayCell> replay_sweep(const WorkloadSpec& w,
                                     const SweepPass& pass, Tally& tally,
                                     Tracer* tracer) {
    std::vector<ReplayCell> out(pass.table.cells.size());
    int run_id = 0;
    for (std::size_t i = 0; i < pass.table.cells.size(); ++i) {
        const api::SweepCell& cell = pass.table.cells[i];
        for (std::size_t r = 0; r < w.sweep.reps; ++r) {
            const Job job{cell.scenario,
                          derive_seed(derive_seed(w.sweep.base_seed, i), r)};
            JobOutcome outcome;
            const Clock::time_point t0 = Clock::now();
            bool ok = false;
            {
                Scope span(tracer, "api.run", ++run_id);
                ok = run_job(job, false, tally, &outcome);
            }
            out[i].seconds += since(t0);
            if (ok) out[i].steps += double(outcome.result.run.steps);
        }
        const double expected =
            cell.outcome.mean("steps") * double(w.sweep.reps);
        if (std::abs(out[i].steps - expected) >
            1e-6 * std::max(1.0, expected)) {
            tally.fail(1, "sweep cell " + std::to_string(i) +
                              ": replay does not reproduce the sweep");
        }
    }
    return out;
}

// ------------------------------------------------------------ fingerprint

/// The value of the `key: value` line of a /proc file; with an empty key,
/// its first line.
std::string proc_value(const std::string& path, const std::string& key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (key.empty()) return line;
        if (line.rfind(key, 0) == 0) {
            const std::size_t colon = line.find(':');
            std::string value =
                colon == std::string::npos ? line : line.substr(colon + 1);
            value.erase(0, value.find_first_not_of(" \t"));
            return value;
        }
    }
    return "unknown";
}

void write_fingerprint(JsonWriter& writer) {
    writer.begin_object();
    writer.kv("cpu_model", proc_value("/proc/cpuinfo", "model name"));
    writer.kv("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    writer.kv("detected_simd",
              support::simd_level_name(support::detected_simd()));
    writer.kv("active_simd", support::simd_level_name(support::active_simd()));
    writer.kv("build_type", PERFBENCH_BUILD_TYPE);
    const std::string loadavg = proc_value("/proc/loadavg", "");
    writer.kv("loadavg_1m", std::strtod(loadavg.c_str(), nullptr));
    writer.end_object();
}

double peak_rss_mib() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- metrics

struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------ untraced run

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string spans_path;
    std::string out_path;  ///< result JSON file ("" = stdout)
};

struct RunReport {
    Metrics metrics;
    Tally tally;
    std::map<std::string, double> info;  ///< sample counts, fail_frac, ...
};

RunReport run_untraced(const Options& opt) {
    RunReport report;
    Tally& tally = report.tally;
    const WorkloadSpec w = make_workload(opt.workload, opt.seed, opt.smoke);

    // Set-up: registry construction (first call only), the check of every
    // scenario, and one untimed warm-up pass (engine and pool start-up
    // included). The first set-up is timed from process start; the metric
    // is the median of kSetups set-ups.
    std::vector<double> setups;
    std::vector<JobOutcome> reference;
    SweepPass sweep_reference;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = i == 0 ? kProcessStart : Clock::now();
        (void)api::ProtocolRegistry::instance();
        check_scenarios(w);
        std::vector<JobOutcome> outcomes;
        SweepPass sweep_pass;
        run_pass(w, tally, nullptr, &outcomes, &sweep_pass);
        setups.push_back(since(t0));
        if (i == 0) {
            reference = std::move(outcomes);
            sweep_reference = std::move(sweep_pass);
        } else {
            check_repeat(reference, outcomes, tally);
            check_repeat(sweep_reference, sweep_pass, tally);
        }
    }

    std::vector<double> samples;
    SweepPass sweep_pass;
    const Clock::time_point start = Clock::now();
    while (samples.size() < kMinSamples || since(start) < opt.seconds) {
        std::vector<JobOutcome> outcomes;
        const Clock::time_point t0 = Clock::now();
        run_pass(w, tally, nullptr, &outcomes, &sweep_pass);
        samples.push_back(since(t0));
        check_repeat(reference, outcomes, tally);
        check_repeat(sweep_reference, sweep_pass, tally);
    }

    // The sweep's per-trial checks: core::consistent on every trial, and
    // the trial seeds reproduce the aggregated table.
    if (w.is_sweep) replay_sweep(w, sweep_pass, tally, nullptr);

    const double run_s = median(samples);
    report.metrics["run_s"] = {run_s, "s"};
    report.metrics["runs_per_s"] = {
        static_cast<double>(w.runs_per_pass()) / run_s, "1/s"};
    report.metrics["setup_s"] = {median(setups), "s"};
    report.metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
    report.info["samples"] = static_cast<double>(samples.size());
    report.info["setups"] = static_cast<double>(setups.size());
    report.info["runs_per_pass"] = static_cast<double>(w.runs_per_pass());
    report.info["run_s_min"] = *std::min_element(samples.begin(), samples.end());
    report.info["run_s_max"] = *std::max_element(samples.begin(), samples.end());
    return report;
}

// -------------------------------------------------------------- traced run

/// Runs `block` (doing `ops` operations) `blocks` times; median s per op.
double per_op(std::size_t blocks, double ops, const std::function<void()>& block) {
    std::vector<double> times;
    for (std::size_t b = 0; b < blocks; ++b) {
        const Clock::time_point t0 = Clock::now();
        block();
        times.push_back(since(t0) / ops);
    }
    return median(times);
}

/// Hold model through the windowed executor: one pending event per node,
/// each event re-emitting one event to a uniform node an Exp(1) later
/// (through emit_message when `via_message`, so an attached injector is
/// consulted).
class WindowHold {
public:
    WindowHold(std::size_t nodes, std::size_t threads,
               const fault::Injector* injector, bool via_message,
               std::uint64_t seed)
        : nodes_(nodes),
          via_message_(via_message),
          executor_(nodes, options(nodes, threads, injector), Rng(seed)) {
        Rng seed_rng(derive_seed(seed, 1));
        for (std::size_t i = 0; i < nodes; ++i) {
            const auto node = static_cast<std::uint32_t>(i);
            executor_.seed(executor_.shard_of(node), seed_rng.exponential(1.0),
                           node);
        }
        block();  // first windows pay lane and queue growth
    }

    /// Runs windows until 2 x nodes events more; seconds per event.
    double block() {
        const auto handler = [this](auto& ctx, sim::Time t,
                                    std::uint32_t /*node*/) {
            const auto target =
                static_cast<std::uint32_t>(ctx.rng().uniform_index(nodes_));
            const sim::Time arrive = t + ctx.rng().exponential(1.0);
            if (via_message_) {
                ctx.emit_message(executor_.shard_of(target), t, arrive, target);
            } else {
                ctx.emit(executor_.shard_of(target), arrive, target);
            }
        };
        const std::uint64_t before = executor_.events_processed();
        const Clock::time_point t0 = Clock::now();
        while (executor_.events_processed() - before < 2 * nodes_) {
            executor_.run_window(handler);
        }
        return since(t0) / double(executor_.events_processed() - before);
    }

private:
    static sim::WindowedOptions options(std::size_t nodes, std::size_t threads,
                                        const fault::Injector* injector) {
        sim::WindowedOptions o;
        o.threads = threads;
        o.reserve_hint = nodes;
        o.injector = injector;
        return o;
    }

    std::size_t nodes_;
    bool via_message_;
    sim::WindowedExecutor<std::uint32_t> executor_;
};

/// Median seconds per event of each hold model, blocks interleaved so
/// that host drift hits every model alike.
std::vector<double> hold_medians(std::vector<WindowHold*> holds,
                                 std::size_t blocks) {
    std::vector<std::vector<double>> times(holds.size());
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t h = 0; h < holds.size(); ++h) {
            times[h].push_back(holds[h]->block());
        }
    }
    std::vector<double> out;
    for (const std::vector<double>& t : times) out.push_back(median(t));
    return out;
}

/// Pop + push on the default scheduler queue with `pending` events.
double queue_hold(std::size_t pending, std::size_t blocks, std::uint64_t seed) {
    Rng rng(seed);
    auto queue = sim::make_scheduler_queue<std::uint32_t>(
        api::Scenario{}.queue_kind, pending);
    for (std::size_t i = 0; i < pending; ++i) {
        queue->push(rng.exponential(1.0), static_cast<std::uint32_t>(i));
    }
    const std::size_t ops = 4 * pending;
    return per_op(blocks, double(ops), [&] {
        for (std::size_t i = 0; i < ops; ++i) {
            const auto e = queue->pop();
            queue->push(e.time + rng.exponential(1.0), e.payload);
        }
    });
}

/// Median seconds of one step() over `rounds` rounds.
double round_time(sync::SyncDynamics& dynamics, Rng& rng, std::size_t rounds,
                  Tracer* tracer, int run_id) {
    std::vector<double> times;
    for (std::size_t r = 0; r < rounds; ++r) {
        Scope span(tracer, "sync.step", run_id);
        const Clock::time_point t0 = Clock::now();
        dynamics.step(rng);
        times.push_back(since(t0));
    }
    return median(times);
}

/// Per-pass cost of make_biased_plurality over the run set's runs.
double assign_seconds(const WorkloadSpec& w, std::size_t blocks) {
    double total = 0.0;
    for (const Job& job : w.jobs) {
        const api::Scenario& s = job.scenario;
        Rng rng(derive_seed(job.seed, 1));
        const double t = per_op(blocks, 1.0, [&] {
            const Assignment a = make_biased_plurality(s.n, s.k, s.alpha, rng);
            keep(a.opinions.data());
        });
        total += t * double(w.is_sweep ? w.sweep.reps : 1);
    }
    return total;
}

/// What the traced run keeps of one workload.
struct TracedWorkload {
    WorkloadSpec spec;
    std::vector<JobOutcome> outcomes;  ///< traced pass, threads as listed
    std::vector<double> run_seconds;   ///< api::run span per job
    std::vector<double> t1_seconds;    ///< threads=1 re-run per job
    double untraced_s = 0.0;
    double traced_s = 0.0;
    double layer_s = 0.0;  ///< traced pass time inside its layer spans

    /// Sum of an extra over the jobs running `protocol` ("" = all jobs).
    [[nodiscard]] double extra(const std::string& protocol,
                               const std::string& name) const {
        double sum = 0.0;
        for (std::size_t j = 0; j < outcomes.size(); ++j) {
            if (!protocol.empty() && spec.jobs[j].scenario.protocol != protocol) {
                continue;
            }
            const auto it = outcomes[j].result.extras.find(name);
            if (it != outcomes[j].result.extras.end()) sum += it->second;
        }
        return sum;
    }
};

void write_spans(const Tracer& tracer, const std::string& path) {
    JsonWriter writer;
    writer.begin_object();
    writer.key("spans");
    writer.begin_array();
    std::map<std::string, std::pair<double, double>> by_name;  // total, self
    const std::vector<double> self_times = tracer.self_times();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        const Span& s = tracer.spans()[i];
        const double self = self_times[i];
        by_name[s.name].first += s.end - s.start;
        by_name[s.name].second += self;
        writer.begin_object();
        writer.kv("name", s.name);
        writer.kv("start", s.start);
        writer.kv("end", s.end);
        writer.kv("parent", s.parent);
        writer.kv("run_id", s.run_id);
        writer.kv("self", self);
        writer.end_object();
    }
    writer.end_array();
    writer.key("summary");
    writer.begin_object();
    for (const auto& [name, times] : by_name) {
        writer.key(name);
        writer.begin_object();
        writer.kv("total_s", times.first);
        writer.kv("self_s", times.second);
        writer.end_object();
    }
    writer.end_object();
    writer.end_object();
    std::ofstream out(path);
    out << writer.str() << "\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
}

RunReport run_traced(const Options& opt) {
    RunReport report;
    Tally& tally = report.tally;
    Metrics& m = report.metrics;
    Tracer tracer;
    const std::size_t blocks = opt.smoke ? 2 : 7;

    // Every workload: the scenario checks, a warm-up pass, one untraced
    // and one traced pass (both must reproduce the warm-up); the two
    // workloads with 2-thread runs are re-run at threads=1.
    std::map<std::string, TracedWorkload> traced;
    SweepPass sweep_pass;
    for (const std::string& name : kWorkloads) {
        TracedWorkload& tw = traced[name];
        tw.spec = make_workload(name, opt.seed, opt.smoke);
        const WorkloadSpec& w = tw.spec;
        check_scenarios(w);
        std::vector<JobOutcome> reference;
        SweepPass sweep_reference;
        run_pass(w, tally, nullptr, &reference, &sweep_reference);
        const Clock::time_point t0 = Clock::now();
        std::vector<JobOutcome> untraced;
        run_pass(w, tally, nullptr, &untraced, &sweep_pass);
        tw.untraced_s = since(t0);
        check_repeat(reference, untraced, tally);
        check_repeat(sweep_reference, sweep_pass, tally);
        {
            Scope root(&tracer, "workload." + name, 0);
            run_pass(w, tally, &tracer, &tw.outcomes, &sweep_pass);
            const int id = root.end();
            tw.traced_s = tracer.duration(id);
            tw.layer_s = tracer.children_time(id);
            for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
                if (tracer.spans()[i].parent == id) {
                    tw.run_seconds.push_back(tracer.duration(int(i)));
                }
            }
        }
        check_repeat(reference, tw.outcomes, tally);
        check_repeat(sweep_reference, sweep_pass, tally);

        if (name == "sync-large" || name == "event-2t-faulted") {
            // Thread invariance: threads=1 must reproduce the threads=2
            // results byte for byte, extras included.
            Scope root(&tracer, "threads1." + name, 0);
            for (std::size_t j = 0; j < w.jobs.size(); ++j) {
                Job job = w.jobs[j];
                job.scenario.threads = 1;
                JobOutcome one;
                const Clock::time_point t1 = Clock::now();
                {
                    Scope span(&tracer, "api.run", int(j + 1));
                    run_job(job, true, tally, &one);
                }
                tw.t1_seconds.push_back(since(t1));
                if (one.serialized != tw.outcomes[j].serialized ||
                    one.result.extras != tw.outcomes[j].result.extras) {
                    tally.fail(1, name + " " + job.scenario.protocol +
                                      ": threads=1 differs from threads=2");
                }
            }
        }
    }

    // ---- workload-derived layer numbers
    const TracedWorkload& sl = traced["sync-large"];
    const TracedWorkload& e1 = traced["event-1t"];
    const TracedWorkload& e2 = traced["event-2t-faulted"];
    const TracedWorkload& sw = traced["sweep-small"];
    for (const auto& [name, tw] : traced) {
        m["trace.overhead." + name] = {tw.traced_s / tw.untraced_s, "ratio"};
        m["trace.coverage." + name] = {tw.layer_s / tw.traced_s, "ratio"};
        if (tw.spec.is_sweep) continue;
        for (std::size_t j = 0; j < tw.spec.jobs.size(); ++j) {
            m["api.run_s." + name + "." + tw.spec.jobs[j].scenario.protocol] = {
                tw.run_seconds[j], "s"};
        }
    }

    // Sync: rounds from the traced runs, round time from step() at the
    // workload's n with the same seed, at 2 threads and at 1.
    const double rounds_alg1 = double(sl.outcomes[0].result.run.steps);
    const double rounds_tc = double(sl.outcomes[1].result.run.steps);
    m["sync.rounds.alg1"] = {rounds_alg1, "count"};
    m["sync.rounds.two-choices"] = {rounds_tc, "count"};
    const std::size_t rounds = opt.smoke ? 2 : 7;
    double round_t[2][2] = {};  // [job][threads-1]
    for (std::size_t j = 0; j < 2; ++j) {
        const Job& job = sl.spec.jobs[j];
        const api::Scenario& s = job.scenario;
        Rng workload_rng(derive_seed(job.seed, 1));
        const Assignment a =
            make_biased_plurality(s.n, s.k, s.alpha, workload_rng);
        for (std::size_t threads : {2u, 1u}) {
            Scope span(&tracer, "layer.sync.round", int(j + 1));
            std::unique_ptr<sync::SyncDynamics> dynamics;
            if (j == 0) {
                sync::ScheduleParams params;
                params.n = s.n;
                params.k = s.k;
                params.alpha = std::max(s.alpha, 1.01);
                params.gamma = s.gamma;
                dynamics = std::make_unique<sync::Algorithm1>(
                    a, sync::Schedule(params), threads);
            } else {
                dynamics = std::make_unique<sync::TwoChoices>(a, threads);
            }
            Rng rng(job.seed);
            round_t[j][threads - 1] =
                round_time(*dynamics, rng, rounds, &tracer, int(j + 1));
        }
    }
    m["sync.round_ms.alg1"] = {round_t[0][1] * 1e3, "ms"};
    m["sync.round_ms.two-choices"] = {round_t[1][1] * 1e3, "ms"};
    m["sync.shard_speedup"] = {
        (rounds_alg1 * round_t[0][0] + rounds_tc * round_t[1][0]) /
            (rounds_alg1 * round_t[0][1] + rounds_tc * round_t[1][1]),
        "ratio"};
    m["sync.round_share"] = {
        (rounds_alg1 * round_t[0][1] + rounds_tc * round_t[1][1]) /
            (sl.run_seconds[0] + sl.run_seconds[1]),
        "ratio"};

    // Scheduler queue and windowed executor hold models. The event-1t
    // engines keep about n events pending: 2^15 (async), 2^14 (validated).
    const std::size_t pending = e1.spec.jobs[0].scenario.n;
    double hold_full = 0.0;
    double hold_half = 0.0;
    {
        Scope span(&tracer, "layer.sim.queue", 0);
        hold_full = queue_hold(pending, blocks, opt.seed);
        hold_half = queue_hold(pending / 2, blocks, opt.seed);
    }
    m["sim.queue.hold_ns"] = {hold_full * 1e9, "ns"};
    m["sim.queue.hold_ns.half"] = {hold_half * 1e9, "ns"};
    m["sim.events.event-1t"] = {e1.extra("", "events_processed"), "count"};
    double queue_s = 0.0;
    for (std::size_t j = 0; j < e1.outcomes.size(); ++j) {
        const double hold =
            e1.spec.jobs[j].scenario.n >= pending ? hold_full : hold_half;
        queue_s += hold * e1.outcomes[j].result.extras.at("events_processed");
    }
    double e1_run_s = 0.0;
    for (const double t : e1.run_seconds) e1_run_s += t;
    m["sim.queue_share"] = {queue_s / e1_run_s, "ratio"};

    const api::Scenario& faulted = e2.spec.jobs[0].scenario;
    double window_t1 = 0.0;
    double window_t2 = 0.0;
    double window_plain = 0.0;
    double window_zero = 0.0;
    {
        Scope span(&tracer, "layer.sim.window", 0);
        const fault::Injector zero(fault::FaultPlan{}, pending,
                                   faulted.max_time, Rng(opt.seed));
        WindowHold t1(pending, 1, nullptr, false, opt.seed);
        WindowHold t2(pending, 2, nullptr, false, opt.seed);
        WindowHold plain(pending, 1, nullptr, true, opt.seed);
        WindowHold zero_plan(pending, 1, &zero, true, opt.seed);
        const std::vector<double> t =
            hold_medians({&t1, &t2, &plain, &zero_plan}, 3 * blocks);
        window_t1 = t[0];
        window_t2 = t[1];
        window_plain = t[2];
        window_zero = t[3];
    }
    m["sim.window.hold_ns.t1"] = {window_t1 * 1e9, "ns"};
    m["sim.window.hold_ns.t2"] = {window_t2 * 1e9, "ns"};
    m["sim.window.parallel_eff"] = {window_t1 / (2.0 * window_t2), "ratio"};
    m["fault.zero_plan_overhead"] = {window_zero / window_plain, "ratio"};

    const double e2_events = e2.extra("", "events_processed");
    m["sim.events.event-2t-faulted"] = {e2_events, "count"};
    m["sim.windows"] = {e2.extra("", "windows"), "count"};
    m["sim.window_stragglers"] = {e2.extra("", "window_stragglers"), "count"};
    m["sim.straggler_ratio"] = {
        e2.extra("", "window_stragglers") / e2_events, "ratio"};
    m["fault.faults_injected"] = {e2.extra("", "faults_injected"), "count"};
    m["fault.messages_lost"] = {e2.extra("", "messages_lost"), "count"};
    m["fault.messages_delayed"] = {e2.extra("", "messages_delayed"), "count"};
    {
        Scope span(&tracer, "layer.fault.draw_fate", 0);
        const fault::Injector injector(api::fault_plan(faulted), faulted.n,
                                       faulted.max_time, Rng(opt.seed));
        Rng rng(derive_seed(opt.seed, 2));
        std::uint64_t dropped = 0;
        const std::size_t ops = opt.smoke ? 1u << 10 : 1u << 18;
        m["fault.draw_fate_ns"] = {
            1e9 * per_op(blocks, double(ops),
                         [&] {
                             for (std::size_t i = 0; i < ops; ++i) {
                                 dropped += injector.draw_fate(rng).drop;
                             }
                         }),
            "ns"};
        keep(dropped);
    }

    // Async and cluster ratios from the runs' extras.
    m["async.leader_signal_share"] = {
        e2.extra("async", "signals_delivered") /
            e2.extra("async", "events_processed"),
        "ratio"};
    m["async.good_tick_ratio"] = {
        e1.extra("async", "good_ticks") / e1.extra("async", "ticks"),
        "ratio"};
    const double aborts = e1.extra("validated", "aborts");
    m["async.validated.abort_rate"] = {
        aborts / (aborts + e1.extra("validated", "commits")), "ratio"};
    m["cluster.leader_peak_load"] = {e2.extra("multi", "leader_peak_load"),
                                     "count"};
    for (std::size_t j = 0; j < e2.spec.jobs.size(); ++j) {
        m["event.thread_speedup." + e2.spec.jobs[j].scenario.protocol] = {
            e2.t1_seconds[j] / e2.run_seconds[j], "ratio"};
    }

    // Sweep: JSON spans, replay through api::run, dispatch and check cost.
    const std::vector<Span>& spans = tracer.spans();
    double sweep_span = 0.0;
    for (const Span& s : spans) {
        const double ms = 1e3 * (s.end - s.start);
        if (s.name == "api.run_sweep") sweep_span = s.end - s.start;
        if (s.name == "api.write_json") m["api.write_json_ms"] = {ms, "ms"};
        if (s.name == "support.parse_json") {
            m["support.parse_json_ms"] = {ms, "ms"};
        }
    }
    m["api.json_bytes"] = {double(sweep_pass.json.size()), "bytes"};
    std::vector<ReplayCell> replay;
    {
        Scope root(&tracer, "replay.sweep-small", 0);
        replay = replay_sweep(sw.spec, sweep_pass, tally, &tracer);
    }
    double replay_s = 0.0;
    double population_s = 0.0;
    double population_steps = 0.0;
    const api::ProtocolRegistry& registry = api::ProtocolRegistry::instance();
    for (std::size_t i = 0; i < replay.size(); ++i) {
        replay_s += replay[i].seconds;
        const api::ProtocolInfo* info =
            registry.find(sweep_pass.table.cells[i].scenario.protocol);
        if (info != nullptr && info->family == "population") {
            population_s += replay[i].seconds;
            population_steps += replay[i].steps;
        }
    }
    m["runner.sweep_overhead_share"] = {(sweep_span - replay_s) / sweep_span,
                                        "ratio"};
    m["population.interactions_per_s"] = {population_steps / population_s,
                                          "1/s"};

    {
        Scope span(&tracer, "layer.api.check", 0);
        std::vector<const Job*> all;
        for (const auto& [name, tw] : traced) {
            for (const Job& job : tw.spec.jobs) all.push_back(&job);
        }
        const std::size_t ops = opt.smoke ? 64 : 4096;
        std::size_t problems = 0;
        m["api.check_us"] = {
            1e6 * per_op(blocks, double(ops),
                         [&] {
                             for (std::size_t i = 0; i < ops; ++i) {
                                 problems += registry
                                                 .check(all[i % all.size()]->scenario)
                                                 .size();
                             }
                         }),
            "us"};
        keep(problems);
    }
    {
        // api::run of a tiny two-choices run against the same engine
        // driven directly (the registry's sync path: run rng = seed,
        // workload rng = derive_seed(seed, 1)). Paired, interleaved.
        Scope span(&tracer, "layer.api.dispatch", 0);
        api::Scenario s = base_scenario("two-choices", 512, 2);
        s.alpha = 1.5;
        std::vector<double> diffs;
        const std::size_t pairs = opt.smoke ? 8 : 1000;
        for (std::size_t i = 0; i < pairs; ++i) {
            const std::uint64_t seed = derive_seed(opt.seed, 100 + i);
            Clock::time_point t0 = Clock::now();
            const api::ScenarioResult via_api = api::run(s, seed);
            const double api_s = since(t0);
            t0 = Clock::now();
            Rng rng(seed);
            Rng workload_rng(derive_seed(seed, 1));
            const Assignment a =
                make_biased_plurality(s.n, s.k, s.alpha, workload_rng);
            sync::TwoChoices dynamics(a);
            sync::RunOptions options;
            options.epsilon = s.epsilon;
            const sync::SyncResult direct =
                sync::run_to_consensus(dynamics, rng, options);
            diffs.push_back(api_s - since(t0));
            ++tally.attempted;
            if (core::serialize(direct) != core::serialize(via_api.run)) {
                tally.fail(1, "api::run differs from the direct engine path");
            }
        }
        m["api.dispatch_us"] = {1e6 * median(diffs), "us"};
    }

    // Support and opinion layers.
    {
        Scope span(&tracer, "layer.support.rng", 0);
        Rng rng(opt.seed);
        std::vector<std::uint64_t> block(sync::kRoundBlock);
        const std::size_t reps = opt.smoke ? 4 : 256;
        m["support.rng.indices_per_s"] = {
            1.0 / per_op(blocks, double(reps * block.size()),
                         [&] {
                             for (std::size_t r = 0; r < reps; ++r) {
                                 rng.uniform_indices(1u << 22, block.data(),
                                                     block.size());
                                 keep(block[0]);
                             }
                         }),
            "1/s"};
        double sum = 0.0;
        const std::size_t ops = opt.smoke ? 1u << 10 : 1u << 20;
        m["support.rng.exponential_ns"] = {
            1e9 * per_op(blocks, double(ops),
                         [&] {
                             for (std::size_t i = 0; i < ops; ++i) {
                                 sum += rng.exponential(1.0);
                             }
                         }),
            "ns"};
        keep(sum);
    }
    {
        Scope span(&tracer, "layer.support.pool", 0);
        support::ThreadPool pool(2);
        const std::size_t ops = opt.smoke ? 16 : 4000;
        m["support.pool.barrier_us"] = {
            1e6 * per_op(blocks, double(ops),
                         [&] {
                             for (std::size_t i = 0; i < ops; ++i) {
                                 pool.parallel_for(
                                     2, [](std::size_t, std::size_t) {});
                             }
                         }),
            "us"};
    }
    {
        Scope span(&tracer, "layer.opinion", 0);
        for (const auto& [name, tw] : traced) {
            m["opinion.assign_ms." + name] = {
                1e3 * assign_seconds(tw.spec, opt.smoke ? 1 : 3), "ms"};
        }
        constexpr std::size_t kCensusN = 1u << 16;
        constexpr std::uint32_t kCensusK = 8;
        Rng rng(opt.seed);
        std::vector<Opinion> opinions(kCensusN);
        for (Opinion& o : opinions) o = Opinion(rng.uniform_index(kCensusK));
        OpinionCensus census(kCensusN, kCensusK);
        census.reset(opinions);
        std::vector<std::pair<std::uint32_t, Opinion>> moves(kCensusN);
        for (auto& [v, to] : moves) {
            v = std::uint32_t(rng.uniform_index(kCensusN));
            to = Opinion(rng.uniform_index(kCensusK));
        }
        const std::size_t reps = opt.smoke ? 1 : 32;
        m["opinion.census_transition_ns"] = {
            1e9 * per_op(blocks, double(reps * moves.size()),
                         [&] {
                             for (std::size_t r = 0; r < reps; ++r) {
                                 for (const auto& [v, to] : moves) {
                                     census.transition(opinions[v], to);
                                     opinions[v] = to;
                                 }
                             }
                         }),
            "ns"};
        keep(census.count(0));
    }

    if (!opt.spans_path.empty()) write_spans(tracer, opt.spans_path);
    report.info["spans"] = double(tracer.spans().size());
    return report;
}

// ------------------------------------------------------------------ main

void usage_error(const std::string& message) {
    std::cerr << "papc_perfbench: " << message << "\n"
              << "usage: papc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--spans FILE] [--out FILE]\n";
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage_error("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") opt.workload = value();
        else if (arg == "--seed") opt.seed = std::stoull(value());
        else if (arg == "--seconds") opt.seconds = std::stod(value());
        else if (arg == "--trace") opt.trace = value() == "1";
        else if (arg == "--smoke") opt.smoke = true;
        else if (arg == "--spans") opt.spans_path = value();
        else if (arg == "--out") opt.out_path = value();
        else usage_error("unknown argument " + arg);
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
        kWorkloads.end()) {
        usage_error("unknown workload '" + opt.workload + "'");
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    RunReport report;
    try {
        report = opt.trace ? run_traced(opt) : run_untraced(opt);
    } catch (const std::exception& e) {
        std::cerr << "papc_perfbench: " << e.what() << "\n";
        return 1;
    }
    const Tally& tally = report.tally;
    report.info["fail_frac"] =
        tally.attempted > 0 ? double(tally.failed) / double(tally.attempted)
                            : 1.0;
    report.info["plurality_losses"] = double(tally.plurality_losses);
    report.info["unconverged"] = double(tally.unconverged);
    const bool correct = tally.failed == 0 && tally.attempted > 0;

    for (const auto& [name, metric] : report.metrics) {
        std::printf("%-40s %16.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    for (const auto& [name, value] : report.info) {
        std::printf("%-40s %16.6g\n", name.c_str(), value);
    }
    for (const std::string& problem : tally.problems) {
        std::printf("FAILED: %s\n", problem.c_str());
    }

    JsonWriter writer;
    writer.begin_object();
    writer.kv("workload", opt.workload);
    writer.kv("seed", opt.seed);
    writer.kv("trace", opt.trace);
    writer.kv("smoke", opt.smoke);
    writer.key("fingerprint");
    write_fingerprint(writer);
    writer.kv("correct", correct);
    writer.kv("attempted", tally.attempted);
    writer.kv("failed", tally.failed);
    writer.key("metrics");
    writer.begin_object();
    for (const auto& [name, metric] : report.metrics) {
        writer.key(name);
        writer.begin_object();
        writer.kv("value", metric.value);
        writer.kv("unit", metric.unit);
        writer.end_object();
    }
    writer.end_object();
    writer.key("info");
    writer.begin_object();
    for (const auto& [name, value] : report.info) writer.kv(name, value);
    writer.end_object();
    writer.end_object();
    if (opt.out_path.empty()) {
        std::printf("%s\n", writer.str().c_str());
    } else {
        std::ofstream out(opt.out_path);
        out << writer.str() << "\n";
        if (!out) {
            std::cerr << "papc_perfbench: cannot write " << opt.out_path << "\n";
            return 1;
        }
    }
    return correct ? 0 : 1;
}
