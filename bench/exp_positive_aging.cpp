/// \file exp_positive_aging.cpp
/// Experiment E9 — the PODC 2020 title claim: *positive aging* admits fast
/// asynchronous plurality consensus. We run the single-leader protocol
/// under latency distributions from each aging class, normalized to equal
/// mean latency 1, and compare consensus times:
///   memoryless      — Exponential(1)            (the analyzed model)
///   positive aging  — Constant(1), Uniform[0,2], Erlang(4, 1/4),
///                     Weibull(2, 2/√π)
///   negative aging  — Weibull(0.5, 1/2), LogNormal(σ = 1.5)
/// Positive-aging models should match or beat the exponential baseline;
/// heavy-tailed (negative-aging) models slow the protocol down because
/// single channel establishments can stall a node for a long time.

#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "async/simulation.hpp"
#include "opinion/assignment.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"

namespace {

using namespace papc;

std::unique_ptr<sim::LatencyModel> make_model(int which) {
    switch (which) {
        case 0: return std::make_unique<sim::ExponentialLatency>(1.0);
        case 1: return std::make_unique<sim::ConstantLatency>(1.0);
        case 2: return std::make_unique<sim::UniformLatency>(0.0, 2.0);
        case 3: return std::make_unique<sim::GammaLatency>(4.0, 0.25);
        case 4:
            // Weibull(2, scale) has mean scale·Γ(1.5) = scale·√π/2.
            return std::make_unique<sim::WeibullLatency>(2.0,
                                                         2.0 / std::sqrt(M_PI));
        case 5:
            // Weibull(0.5, scale) has mean scale·Γ(3) = 2·scale.
            return std::make_unique<sim::WeibullLatency>(0.5, 0.5);
        default:
            // LogNormal(mu, 1.5) with mean 1: mu = -1.5²/2.
            return std::make_unique<sim::LogNormalLatency>(-1.125, 1.5);
    }
}

}  // namespace

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E9: positive aging vs negative aging latencies");

    const std::size_t n = 1 << 14;
    const std::uint32_t k = 4;
    const double alpha = 2.0;
    const std::size_t reps = 3;
    std::cout << "n = 2^14, k = " << k << ", alpha = " << alpha
              << ", all models normalized to mean latency 1\n\n";

    Table table({"latency model", "aging class", "steps/unit C1", "eps-time",
                 "consensus", "success"});
    for (int which = 0; which <= 6; ++which) {
        const auto probe = make_model(which);
        const std::string name = probe->name();
        const std::string aging = sim::to_string(probe->aging());
        const auto o = runner::run_experiment(
            [&](std::uint64_t s) {
                Rng wrng(derive_seed(s, 1));
                const Assignment a = make_biased_plurality(n, k, alpha, wrng);
                async::AsyncConfig c;
                c.alpha_hint = alpha;
                c.max_time = 4000.0;
                c.record_series = false;
                async::SingleLeaderSimulation sim_run(a, c, make_model(which),
                                                      derive_seed(s, 2));
                const async::AsyncResult r = sim_run.run();
                runner::TrialMetrics m;
                m["success"] = (r.converged && r.plurality_won) ? 1.0 : 0.0;
                m["c1"] = r.steps_per_unit;
                if (r.epsilon_time >= 0.0) m["eps"] = r.epsilon_time;
                if (r.consensus_time >= 0.0) m["cons"] = r.consensus_time;
                return m;
            },
            reps, derive_seed(0xE901, which), /*threads=*/4);
        table.row()
            .add(name)
            .add(aging)
            .add(o.mean("c1"), 2)
            .add(o.mean("eps"), 1)
            .add(o.mean("cons"), 1)
            .add(o.mean("success"), 2);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: all positive-aging rows land close to the"
                 " exponential\nbaseline (constant/uniform even slightly"
                 " faster — no latency tail);\nWeibull(0.5) and LogNormal"
                 " (negative aging) are clearly slower, driven\nby stalled"
                 " channel establishments.\n";
    return 0;
}
