#include "api/sweep.hpp"

#include "support/check.hpp"
#include "support/parse.hpp"
#include "support/random.hpp"

namespace papc::api {

namespace {

/// Splits on a separator, keeping empty tokens (they become errors).
std::vector<std::string> split(const std::string& text, char separator) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(separator, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

/// A range axis with more values than this is a typo, not an experiment
/// plan (it also bounds memory before any validation runs).
constexpr std::uint64_t kMaxRangeValues = 100000;

/// Expands one comma-separated value item: either a literal, or an
/// inclusive integer range "lo..hi" / "lo..hi..step".
std::string expand_value_item(const std::string& item,
                              std::vector<std::string>* values) {
    const std::size_t range_pos = item.find("..");
    if (range_pos == std::string::npos) {
        if (item.empty()) return "empty value in sweep axis";
        values->push_back(item);
        return {};
    }
    const std::string lo_text = item.substr(0, range_pos);
    std::string hi_text = item.substr(range_pos + 2);
    std::int64_t step = 1;
    const std::size_t step_pos = hi_text.find("..");
    if (step_pos != std::string::npos) {
        const std::string step_text = hi_text.substr(step_pos + 2);
        hi_text = hi_text.substr(0, step_pos);
        if (!try_parse_i64(step_text, &step) || step <= 0) {
            return "invalid range step in '" + item + "' (expected a positive integer)";
        }
    }
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (!try_parse_i64(lo_text, &lo) || !try_parse_i64(hi_text, &hi)) {
        return "invalid range '" + item + "' (expected lo..hi integers)";
    }
    if (hi < lo) {
        return "empty range '" + item + "' (hi < lo)";
    }
    // Count first (in unsigned arithmetic, immune to hi near INT64_MAX),
    // then step exactly count-1 times so the counter never overflows.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t count = span / static_cast<std::uint64_t>(step) + 1;
    if (count > kMaxRangeValues) {
        return "range '" + item + "' expands to " + std::to_string(count) +
               " values (limit " + std::to_string(kMaxRangeValues) + ")";
    }
    std::int64_t v = lo;
    for (std::uint64_t i = 0;; ++i) {
        values->push_back(std::to_string(v));
        if (i + 1 == count) break;
        v += step;  // stays <= hi: i + 1 < count implies v + step <= hi
    }
    return {};
}

}  // namespace

SweepSpecParse parse_sweep_spec(const std::string& spec) {
    SweepSpecParse out;
    if (spec.empty()) {
        out.error = "empty sweep specification";
        return out;
    }
    for (const std::string& axis_text : split(spec, ';')) {
        const std::size_t eq = axis_text.find('=');
        if (eq == std::string::npos || eq == 0) {
            out.error = "sweep axis '" + axis_text +
                        "' is not of the form field=value,value,...";
            return out;
        }
        SweepAxis axis;
        axis.field = axis_text.substr(0, eq);
        for (const SweepAxis& existing : out.axes) {
            if (existing.field == axis.field) {
                out.error = "duplicate sweep axis '" + axis.field + "'";
                return out;
            }
        }
        for (const std::string& item : split(axis_text.substr(eq + 1), ',')) {
            const std::string error = expand_value_item(item, &axis.values);
            if (!error.empty()) {
                out.error = error;
                return out;
            }
        }
        if (axis.values.empty()) {
            out.error = "sweep axis '" + axis.field + "' has no values";
            return out;
        }
        out.axes.push_back(std::move(axis));
    }
    return out;
}

std::string expand(const Sweep& sweep, std::vector<SweepCell>* cells) {
    cells->clear();
    std::size_t total = 1;
    for (const SweepAxis& axis : sweep.axes) {
        if (axis.field.empty() || axis.values.empty()) {
            return "sweep axis '" + axis.field + "' has no values";
        }
        total *= axis.values.size();
    }
    cells->reserve(total);
    // Odometer over the axes, last axis fastest.
    std::vector<std::size_t> index(sweep.axes.size(), 0);
    for (;;) {
        SweepCell cell;
        cell.scenario = sweep.base;
        for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
            const SweepAxis& axis = sweep.axes[a];
            const std::string& value = axis.values[index[a]];
            const std::string error =
                set_field(cell.scenario, axis.field, value);
            if (!error.empty()) return error;
            cell.coordinates.emplace_back(axis.field, value);
        }
        cells->push_back(std::move(cell));
        // Advance the odometer.
        std::size_t a = sweep.axes.size();
        for (;;) {
            if (a == 0) return {};
            --a;
            if (++index[a] < sweep.axes[a].values.size()) break;
            index[a] = 0;
        }
    }
}

SweepResult run_sweep(const Sweep& sweep) {
    SweepResult out;
    out.base = sweep.base;
    out.reps = sweep.reps;
    for (const SweepAxis& axis : sweep.axes) {
        out.axis_names.push_back(axis.field);
    }
    const std::string error = expand(sweep, &out.cells);
    PAPC_CHECK(error.empty());
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (std::size_t i = 0; i < out.cells.size(); ++i) {
        SweepCell& cell = out.cells[i];
        PAPC_CHECK(registry.check(cell.scenario).empty());
        const Scenario& scenario = cell.scenario;
        const runner::TrialFn trial =
            [&scenario, &registry](std::uint64_t seed) {
                const ScenarioResult r = registry.run(scenario, seed);
                runner::TrialMetrics metrics = runner::metrics_from(r.run);
                for (const auto& [name, value] : r.extras) {
                    metrics[name] = value;
                }
                return metrics;
            };
        // Cell seeds derive from (base_seed, cell index): reproducible and
        // independent of how many cells or threads run.
        cell.outcome = runner::run_experiment(
            trial, sweep.reps, derive_seed(sweep.base_seed, i),
            sweep.threads > 0 ? sweep.threads : 1);
    }
    return out;
}

void write_json(JsonWriter& writer, const SweepResult& result) {
    writer.begin_object();
    writer.key("base");
    write_json(writer, result.base);
    writer.key("axes");
    writer.begin_array();
    for (const std::string& name : result.axis_names) writer.value(name);
    writer.end_array();
    writer.kv("reps", static_cast<std::uint64_t>(result.reps));
    writer.key("cells");
    writer.begin_array();
    for (const SweepCell& cell : result.cells) {
        writer.begin_object();
        writer.key("coordinates");
        writer.begin_object();
        for (const auto& [field, value] : cell.coordinates) {
            writer.kv(field, value);
        }
        writer.end_object();
        writer.key("outcome");
        runner::write_json(writer, cell.outcome);
        writer.end_object();
    }
    writer.end_array();
    writer.end_object();
}

}  // namespace papc::api
