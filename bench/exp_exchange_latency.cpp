/// \file exp_exchange_latency.cpp
/// Experiment E10 — the §5 model extension: message exchange over an
/// established channel also takes time, handled by leader-validated
/// commits ("updates are committed only if the state of the leader has not
/// been changed in the meantime"). We sweep the per-message latency from
/// negligible to dominating the channel-establishment latency and measure:
///   - consensus time (grows with the message latency, in raw steps),
///   - the abort rate of the two-phase commit (stays small: the leader's
///     state changes only O(G*) times per run),
///   - correctness (plurality still wins).
/// The zero-message-latency row is cross-checked against the plain
/// Algorithm 2+3 engine.

#include <iostream>

#include "async/sequential_simulation.hpp"
#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "support/table.hpp"

int main() {
    using namespace papc;
    runner::print_banner(std::cout,
                         "E10 (Section 5): message-exchange latencies with "
                         "validated commits");

    const std::size_t n = 1 << 13;
    const std::uint32_t k = 4;
    const double alpha = 1.8;
    const std::size_t reps = 3;

    std::cout << "n = 2^13, k = " << k << ", alpha = " << alpha
              << ", channel latency Exp(1); message latency Exp(1/m)\n\n";

    {
        async::AsyncConfig c;
        c.alpha_hint = alpha;
        c.max_time = 3000.0;
        c.record_series = false;
        const auto o = runner::run_experiment(
            [&](std::uint64_t s) {
                const async::AsyncResult r =
                    async::run_single_leader(n, k, alpha, c, s);
                runner::TrialMetrics m;
                m["cons"] = r.consensus_time;
                m["ok"] = (r.converged && r.plurality_won) ? 1.0 : 0.0;
                return m;
            },
            reps, 0xEA00, /*threads=*/4);
        const auto seq = runner::run_experiment(
            [&](std::uint64_t s) {
                const async::AsyncResult r =
                    async::run_sequential_single_leader(n, k, alpha, c, s);
                runner::TrialMetrics m;
                m["cons"] = r.consensus_time;
                m["ok"] = (r.converged && r.plurality_won) ? 1.0 : 0.0;
                return m;
            },
            reps, 0xEA0F, /*threads=*/4);
        std::cout << "reference (no latencies at all, sequentialized model of"
                     " [EFK+17]):\n  consensus = "
                  << format_double(seq.mean("cons"), 1)
                  << " steps, success = " << format_double(seq.mean("ok"), 2)
                  << "\n";
        std::cout << "baseline (channel latencies, instant messages — "
                     "Algorithm 2+3):\n  consensus = "
                  << format_double(o.mean("cons"), 1)
                  << " steps, success = " << format_double(o.mean("ok"), 2)
                  << "\n\n";
    }

    Table table({"mean msg latency m", "C1 steps/unit", "consensus",
                 "commits", "aborts", "abort rate", "success"});
    std::uint64_t row = 0;
    for (const double mean_msg : {0.01, 0.1, 0.5, 1.0, 2.0, 5.0}) {
        const auto o = runner::run_experiment(
            [&](std::uint64_t s) {
                async::AsyncConfig c;
                c.alpha_hint = alpha;
                c.max_time = 6000.0;
                c.record_series = false;
                const async::ValidatedResult r =
                    async::run_validated_single_leader(n, k, alpha, c,
                                                       1.0 / mean_msg, s);
                runner::TrialMetrics m;
                m["c1"] = r.base.steps_per_unit;
                if (r.base.consensus_time >= 0.0) m["cons"] = r.base.consensus_time;
                m["commits"] = static_cast<double>(r.commits);
                m["aborts"] = static_cast<double>(r.aborts);
                m["abort_rate"] = r.abort_rate;
                m["ok"] = (r.base.converged && r.base.plurality_won) ? 1.0 : 0.0;
                return m;
            },
            reps, derive_seed(0xEA01, row++), /*threads=*/4);
        table.row()
            .add(mean_msg, 2)
            .add(o.mean("c1"), 2)
            .add(o.mean("cons"), 1)
            .add(o.mean("commits"), 0)
            .add(o.mean("aborts"), 0)
            .add(o.mean("abort_rate"), 4)
            .add(o.mean("ok"), 2);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: consensus time scales with the *total*"
                 " per-cycle latency\n(tracked by C1), success stays 1.00,"
                 " and the abort rate stays small —\nvalidation only fails"
                 " in the short windows around the O(G*) leader\nstate"
                 " changes, confirming the paper's claim that the relaxation"
                 " is 'easy'\nin the single-leader case.\n";
    return 0;
}
