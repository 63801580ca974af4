/// \file exp_async_single_leader.cpp
/// Experiment E4 — Theorem 13: the asynchronous single-leader protocol
/// ε-converges in O(log log_α k · log k + log log n) time and fully
/// converges after O(log n) more. Sweeps:
///   (a) time vs n at fixed k, α, λ — ε-time nearly flat, full-consensus
///       tail growing slowly (log n term);
///   (b) time vs 1/λ at fixed n — both times scale linearly with the mean
///       channel latency (time is measured in time *steps*; one time unit
///       is C1 = F^{-1}(0.9) steps).

#include <iostream>

#include "async/simulation.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"

namespace {

using namespace papc;

runner::TrialMetrics one_trial(std::size_t n, std::uint32_t k, double alpha,
                               double lambda, std::uint64_t seed) {
    async::AsyncConfig c;
    c.lambda = lambda;
    c.alpha_hint = alpha;
    c.max_time = 3000.0;
    c.record_series = false;
    const async::AsyncResult r = async::run_single_leader(n, k, alpha, c, seed);
    // Unified metrics from the shared RunResult base, plus family extras.
    runner::TrialMetrics m = runner::metrics_from(r);
    m["success"] = r.plurality_won ? 1.0 : 0.0;
    if (r.consensus_time >= 0.0) {
        m["tail"] = r.consensus_time - std::max(0.0, r.epsilon_time);
    }
    m["steps_per_unit"] = r.steps_per_unit;
    return m;
}

}  // namespace

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E4 (Theorem 13): async single-leader consensus time");

    {
        runner::print_heading(std::cout,
                              "(a) time vs n  [k = 4, alpha = 1.8, lambda = 1]");
        Table table({"n", "eps-time (mean)", "consensus (mean)",
                     "tail (consensus - eps)", "success"});
        std::uint64_t row = 0;
        for (const std::size_t n :
             {std::size_t{1} << 10, std::size_t{1} << 12, std::size_t{1} << 14,
              std::size_t{1} << 16, std::size_t{1} << 17}) {
            const auto o = runner::run_experiment(
                [&](std::uint64_t s) { return one_trial(n, 4, 1.8, 1.0, s); }, 5,
                derive_seed(0xE401, row++), /*threads=*/4);
            table.row()
                .add(n)
                .add(o.mean("epsilon_time"), 1)
                .add(o.mean("consensus_time"), 1)
                .add(o.mean("tail"), 1)
                .add(o.mean("success"), 2);
        }
        table.print(std::cout);
        std::cout << "Expected: eps-time nearly flat in n; the tail grows"
                     " slowly (O(log n)).\n";
    }

    {
        runner::print_heading(std::cout,
                              "(b) time vs 1/lambda  [n = 2^14, k = 4, "
                              "alpha = 1.8]");
        Table table({"1/lambda", "steps/unit C1", "eps-time (mean)",
                     "consensus (mean)", "eps-time / C1  (time units)",
                     "success"});
        std::uint64_t row = 0;
        for (const double inv_lambda : {0.1, 1.0, 2.0, 5.0, 10.0}) {
            const auto o = runner::run_experiment(
                [&](std::uint64_t s) {
                    return one_trial(1 << 14, 4, 1.8, 1.0 / inv_lambda, s);
                },
                5, derive_seed(0xE402, row++), /*threads=*/4);
            const double c1 = o.mean("steps_per_unit");
            table.row()
                .add(inv_lambda, 1)
                .add(c1, 2)
                .add(o.mean("epsilon_time"), 1)
                .add(o.mean("consensus_time"), 1)
                .add(o.mean("epsilon_time") / c1, 2)
                .add(o.mean("success"), 2);
        }
        table.print(std::cout);
        std::cout << "Expected: raw times scale with 1/lambda, but measured"
                     " in time units\n(eps-time / C1) the protocol takes a"
                     " latency-independent number of units.\n";
    }
    return 0;
}
