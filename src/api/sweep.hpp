#pragma once

/// \file sweep.hpp
/// Declarative parameter sweeps over Scenario fields: pick a base
/// Scenario, attach axes ("n" over {1000, 10000}, "k" over 2..8, even
/// "protocol" over names), and run the cartesian product with per-cell
/// repetitions through the parallel experiment harness:
///
///   api::Sweep sweep;
///   sweep.base.protocol = "two-choices";
///   sweep.axes = api::parse_sweep_spec("n=1000,10000;k=2..8").axes;
///   sweep.reps = 5;
///   api::SweepResult table = api::run_sweep(sweep);
///
/// Each cell aggregates the unified metrics (runner::metrics_from) plus
/// the protocol's named extras over `reps` trials with derived per-trial
/// seeds; cell seeds derive from (base_seed, cell index), so results are
/// reproducible and independent of execution order.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "runner/experiment.hpp"
#include "support/json_writer.hpp"

namespace papc::api {

/// One sweep dimension: a Scenario field name (set_field key) and the
/// string values it takes.
struct SweepAxis {
    std::string field;
    std::vector<std::string> values;
};

/// A declarative sweep: base scenario, axes, repetitions.
struct Sweep {
    Scenario base;
    std::vector<SweepAxis> axes;
    std::size_t reps = 1;          ///< trials per cell
    std::uint64_t base_seed = 1;   ///< cell seeds derive from this
    std::size_t threads = 1;       ///< worker threads per cell
};

/// One expanded grid point: the concrete scenario, its axis coordinates
/// (in axis order), and the aggregated trial metrics.
struct SweepCell {
    Scenario scenario;
    std::vector<std::pair<std::string, std::string>> coordinates;
    runner::ExperimentOutcome outcome;
};

/// The full sweep table.
struct SweepResult {
    Scenario base;
    std::vector<std::string> axis_names;
    std::size_t reps = 0;
    std::vector<SweepCell> cells;
};

/// Parses a sweep specification string: axes separated by ';', each
/// `field=values` where values are a comma list of literals and/or
/// integer ranges `lo..hi` / `lo..hi..step` (inclusive). Example:
/// "n=1000,10000;k=2..8" (2 x 7 grid). An empty error means success.
struct SweepSpecParse {
    std::vector<SweepAxis> axes;
    std::string error;

    [[nodiscard]] bool ok() const { return error.empty(); }
};
[[nodiscard]] SweepSpecParse parse_sweep_spec(const std::string& spec);

/// Cartesian expansion of the axes over the base scenario, last axis
/// fastest. Returns the error from the first set_field that rejects a
/// value ("" = success); on success `cells` holds scenario + coordinates
/// for every grid point (outcomes empty).
[[nodiscard]] std::string expand(const Sweep& sweep,
                                 std::vector<SweepCell>* cells);

/// Expands and runs every cell (reps trials each, metrics aggregated via
/// runner::run_experiment). Every cell's scenario must pass the
/// registry check (PAPC_CHECKed); front ends should pre-flight with
/// expand() + ProtocolRegistry::check for friendly errors.
[[nodiscard]] SweepResult run_sweep(const Sweep& sweep);

/// Emits the sweep table as one JSON object:
/// {"base": ..., "axes": [...], "reps": R, "cells":
///   [{"coordinates": {...}, "outcome": {...}}, ...]}.
void write_json(JsonWriter& writer, const SweepResult& result);

}  // namespace papc::api
