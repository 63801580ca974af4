#include "api/scenario.hpp"

#include <cmath>
#include <sstream>

#include "support/parse.hpp"

namespace papc::api {

const char* to_string(Workload workload) {
    switch (workload) {
        case Workload::kBiased: return "biased";
        case Workload::kTwoFrontRunners: return "two-front-runners";
        case Workload::kAdditiveGap: return "gap";
        case Workload::kUniform: return "uniform";
        case Workload::kZipf: return "zipf";
    }
    return "?";
}

bool try_parse_workload(const std::string& name, Workload* out) {
    if (name == "biased") *out = Workload::kBiased;
    else if (name == "two-front-runners") *out = Workload::kTwoFrontRunners;
    else if (name == "gap") *out = Workload::kAdditiveGap;
    else if (name == "uniform") *out = Workload::kUniform;
    else if (name == "zipf") *out = Workload::kZipf;
    else return false;
    return true;
}

namespace {

struct FieldSpec {
    const char* name;
    const char* help;
    std::string (*set)(Scenario&, const std::string&);
    std::string (*get)(const Scenario&);
};

std::string bad_value(const char* field, const std::string& value,
                      const char* expected) {
    return std::string("invalid value '") + value + "' for field '" + field +
           "' (expected " + expected + ")";
}

std::string format_double_field(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
}

// One row per Scenario field. The macro-free table is verbose but keeps
// every field's parse/print/help in one place.
const FieldSpec kFields[] = {
    {"protocol", "protocol name from the registry (see --list-protocols)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (v.empty()) return bad_value("protocol", v, "a protocol name");
         s.protocol = v;
         return {};
     },
     [](const Scenario& s) { return s.protocol; }},
    {"n", "population size",
     [](Scenario& s, const std::string& v) -> std::string {
         std::uint64_t parsed = 0;
         if (!try_parse_u64(v, &parsed)) {
             return bad_value("n", v, "a non-negative integer");
         }
         s.n = static_cast<std::size_t>(parsed);
         return {};
     },
     [](const Scenario& s) { return std::to_string(s.n); }},
    {"k", "number of opinions",
     [](Scenario& s, const std::string& v) -> std::string {
         std::uint64_t parsed = 0;
         if (!try_parse_u64(v, &parsed) || parsed > 0xFFFFFFFFULL) {
             return bad_value("k", v, "a non-negative integer");
         }
         s.k = static_cast<std::uint32_t>(parsed);
         return {};
     },
     [](const Scenario& s) { return std::to_string(s.k); }},
    {"alpha", "initial multiplicative bias of opinion 0",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.alpha)) {
             return bad_value("alpha", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.alpha); }},
    {"workload", "biased | two-front-runners | gap | uniform | zipf",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_workload(v, &s.workload)) {
             return bad_value("workload", v,
                              "biased, two-front-runners, gap, uniform or zipf");
         }
         return {};
     },
     [](const Scenario& s) { return std::string(to_string(s.workload)); }},
    {"zipf-s", "Zipf exponent (workload=zipf)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.zipf_s)) {
             return bad_value("zipf-s", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.zipf_s); }},
    {"gap", "additive gap in nodes (workload=gap; 0 = n/10)",
     [](Scenario& s, const std::string& v) -> std::string {
         std::uint64_t parsed = 0;
         if (!try_parse_u64(v, &parsed)) {
             return bad_value("gap", v, "a non-negative integer");
         }
         s.gap = static_cast<std::size_t>(parsed);
         return {};
     },
     [](const Scenario& s) { return std::to_string(s.gap); }},
    {"tail-fraction", "background mass (workload=two-front-runners)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.tail_fraction)) {
             return bad_value("tail-fraction", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.tail_fraction); }},
    {"lambda", "channel-establishment rate (async/cluster families)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.lambda)) {
             return bad_value("lambda", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.lambda); }},
    {"msg-rate", "per-message rate (validated protocol)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.msg_rate)) {
             return bad_value("msg-rate", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.msg_rate); }},
    {"gamma", "generation-density threshold (sync Algorithm 1)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.gamma)) {
             return bad_value("gamma", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.gamma); }},
    {"threads", "intra-run worker threads (sync + event-driven families; "
                "results identical at any count)",
     [](Scenario& s, const std::string& v) -> std::string {
         std::uint64_t parsed = 0;
         if (!try_parse_u64(v, &parsed)) {
             return bad_value("threads", v, "a positive integer");
         }
         s.threads = static_cast<std::size_t>(parsed);
         return {};
     },
     [](const Scenario& s) { return std::to_string(s.threads); }},
    {"window", "event-executor window width in time units (0 = auto from "
               "lambda)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.window)) {
             return bad_value("window", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.window); }},
    {"epsilon", "(1-eps)-agreement threshold",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.epsilon)) {
             return bad_value("epsilon", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.epsilon); }},
    {"max-steps", "round/interaction budget (0 = family default)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_u64(v, &s.max_steps)) {
             return bad_value("max-steps", v, "a non-negative integer");
         }
         return {};
     },
     [](const Scenario& s) { return std::to_string(s.max_steps); }},
    {"max-time", "simulated-time budget (event-driven families)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.max_time)) {
             return bad_value("max-time", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.max_time); }},
    {"record-series", "record the plurality-fraction series (true/false)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_bool(v, &s.record_series)) {
             return bad_value("record-series", v, "true or false");
         }
         return {};
     },
     [](const Scenario& s) {
         return std::string(s.record_series ? "true" : "false");
     }},
    {"record-every", "recording cadence in rounds/interactions (0 = default)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_u64(v, &s.record_every)) {
             return bad_value("record-every", v, "a non-negative integer");
         }
         return {};
     },
     [](const Scenario& s) { return std::to_string(s.record_every); }},
    {"sample-interval", "event-driven sampling metronome (time steps)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.sample_interval)) {
             return bad_value("sample-interval", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.sample_interval); }},
    {"fault_loss", "per-message drop probability (fault layer)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_loss)) {
             return bad_value("fault_loss", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.fault_loss); }},
    {"fault_dup", "per-message duplication probability (fault layer)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_dup)) {
             return bad_value("fault_dup", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.fault_dup); }},
    {"fault_corrupt", "per-message payload-corruption probability (fault "
                      "layer)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_corrupt)) {
             return bad_value("fault_corrupt", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.fault_corrupt); }},
    {"fault_crash_rate", "per-node exponential crash rate (fault layer)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_crash_rate)) {
             return bad_value("fault_crash_rate", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.fault_crash_rate); }},
    {"fault_recover_rate", "per-node exponential recover rate (0 = crashed "
                           "nodes stay down)",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_recover_rate)) {
             return bad_value("fault_recover_rate", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) {
         return format_double_field(s.fault_recover_rate);
     }},
    {"fault_straggler_frac", "fraction of messages with heavy-tailed extra "
                             "delay",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_straggler_frac)) {
             return bad_value("fault_straggler_frac", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) {
         return format_double_field(s.fault_straggler_frac);
     }},
    {"fault_straggler_scale", "scale of the Pareto straggler multiplier",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.fault_straggler_scale)) {
             return bad_value("fault_straggler_scale", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) {
         return format_double_field(s.fault_straggler_scale);
     }},
    {"byzantine_frac", "fraction of byzantine (adversarial) nodes",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!try_parse_double(v, &s.byzantine_frac)) {
             return bad_value("byzantine_frac", v, "a number");
         }
         return {};
     },
     [](const Scenario& s) { return format_double_field(s.byzantine_frac); }},
    {"byzantine_policy", "fixed | random | adaptive byzantine reporting "
                         "policy",
     [](Scenario& s, const std::string& v) -> std::string {
         if (!fault::try_parse_byzantine_policy(v, &s.byzantine_policy)) {
             return bad_value("byzantine_policy", v,
                              "fixed, random or adaptive");
         }
         return {};
     },
     [](const Scenario& s) {
         return std::string(fault::to_string(s.byzantine_policy));
     }},
};

const FieldSpec* find_field(const std::string& name) {
    for (const FieldSpec& spec : kFields) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

}  // namespace

std::vector<std::string> validate(const Scenario& scenario) {
    std::vector<std::string> problems;
    const auto complain = [&problems](const std::string& message) {
        problems.push_back(message);
    };
    if (scenario.protocol.empty()) complain("protocol must be non-empty");
    if (scenario.n < 2) complain("n must be >= 2");
    if (scenario.k < 2) complain("k must be >= 2");
    if (!(scenario.alpha >= 1.0) || !std::isfinite(scenario.alpha)) {
        complain("alpha must be >= 1");
    }
    if (!(scenario.zipf_s > 0.0)) complain("zipf-s must be > 0");
    if (scenario.gap >= scenario.n && scenario.gap != 0) {
        complain("gap must be < n");
    }
    if (!(scenario.tail_fraction >= 0.0) || scenario.tail_fraction >= 1.0) {
        complain("tail-fraction must be in [0, 1)");
    }
    if (!(scenario.lambda > 0.0)) complain("lambda must be > 0");
    if (!(scenario.msg_rate > 0.0)) complain("msg-rate must be > 0");
    if (!(scenario.gamma > 0.0) || scenario.gamma > 1.0) {
        complain("gamma must be in (0, 1]");
    }
    if (scenario.threads < 1 || scenario.threads > 1024) {
        complain("threads must be in [1, 1024]");
    }
    if (!(scenario.window >= 0.0) || !std::isfinite(scenario.window)) {
        complain("window must be >= 0");
    }
    if (!(scenario.epsilon > 0.0) || scenario.epsilon >= 1.0) {
        complain("epsilon must be in (0, 1)");
    }
    if (!(scenario.max_time > 0.0)) complain("max-time must be > 0");
    if (!(scenario.sample_interval > 0.0)) {
        complain("sample-interval must be > 0");
    }
    // Fault-field constraints live with the plan (the messages name the
    // scenario fields).
    fault_plan(scenario).validate(&problems);
    return problems;
}

fault::FaultPlan fault_plan(const Scenario& scenario) {
    fault::FaultPlan plan;
    plan.loss = scenario.fault_loss;
    plan.duplication = scenario.fault_dup;
    plan.corruption = scenario.fault_corrupt;
    plan.crash_rate = scenario.fault_crash_rate;
    plan.recover_rate = scenario.fault_recover_rate;
    plan.straggler_fraction = scenario.fault_straggler_frac;
    plan.straggler_scale = scenario.fault_straggler_scale;
    plan.byzantine_fraction = scenario.byzantine_frac;
    plan.byzantine_policy = scenario.byzantine_policy;
    return plan;
}

const std::vector<std::string>& scenario_field_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const FieldSpec& spec : kFields) out.emplace_back(spec.name);
        return out;
    }();
    return names;
}

std::string set_field(Scenario& scenario, const std::string& field,
                      const std::string& value) {
    const FieldSpec* spec = find_field(field);
    if (spec == nullptr) return "unknown scenario field '" + field + "'";
    return spec->set(scenario, value);
}

std::string get_field(const Scenario& scenario, const std::string& field) {
    const FieldSpec* spec = find_field(field);
    if (spec == nullptr) return {};
    return spec->get(scenario);
}

std::string field_help(const std::string& field) {
    const FieldSpec* spec = find_field(field);
    if (spec == nullptr) return {};
    return spec->help;
}

void write_json(JsonWriter& writer, const Scenario& scenario) {
    writer.begin_object();
    writer.kv("protocol", scenario.protocol);
    writer.kv("n", static_cast<std::uint64_t>(scenario.n));
    writer.kv("k", static_cast<std::uint64_t>(scenario.k));
    writer.kv("alpha", scenario.alpha);
    writer.kv("workload", to_string(scenario.workload));
    writer.kv("zipf-s", scenario.zipf_s);
    writer.kv("gap", static_cast<std::uint64_t>(scenario.gap));
    writer.kv("tail-fraction", scenario.tail_fraction);
    writer.kv("lambda", scenario.lambda);
    writer.kv("msg-rate", scenario.msg_rate);
    writer.kv("gamma", scenario.gamma);
    writer.kv("threads", static_cast<std::uint64_t>(scenario.threads));
    writer.kv("window", scenario.window);
    writer.kv("epsilon", scenario.epsilon);
    writer.kv("max-steps", scenario.max_steps);
    writer.kv("max-time", scenario.max_time);
    writer.kv("record-series", scenario.record_series);
    writer.kv("record-every", scenario.record_every);
    writer.kv("sample-interval", scenario.sample_interval);
    writer.kv("fault_loss", scenario.fault_loss);
    writer.kv("fault_dup", scenario.fault_dup);
    writer.kv("fault_corrupt", scenario.fault_corrupt);
    writer.kv("fault_crash_rate", scenario.fault_crash_rate);
    writer.kv("fault_recover_rate", scenario.fault_recover_rate);
    writer.kv("fault_straggler_frac", scenario.fault_straggler_frac);
    writer.kv("fault_straggler_scale", scenario.fault_straggler_scale);
    writer.kv("byzantine_frac", scenario.byzantine_frac);
    writer.kv("byzantine_policy", fault::to_string(scenario.byzantine_policy));
    writer.end_object();
}

}  // namespace papc::api
