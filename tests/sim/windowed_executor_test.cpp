#include "sim/windowed_executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace papc::sim {
namespace {

// Pins the WindowedExecutor's window semantics — the contract the four
// event-driven engine families code against (see the header comment):
// half-open windows, empty-stretch skipping, straggler delivery at the
// barrier, per-window substreams labeled by a monotone counter, and
// thread-count-invariant trajectories.

WindowedOptions options(std::size_t shards, double window,
                        std::size_t threads = 1) {
    WindowedOptions o;
    o.shards = shards;
    o.threads = threads;
    o.window = window;
    return o;
}

TEST(WindowedExecutor, ShardPartitionIsContiguousAndBalanced) {
    const std::size_t n = 1000;
    const WindowedExecutor<int> executor(n, options(8, 1.0), Rng(1));
    ASSERT_EQ(executor.num_shards(), 8U);
    std::vector<std::size_t> counts(8, 0);
    std::size_t prev = 0;
    for (std::size_t v = 0; v < n; ++v) {
        const std::size_t s = executor.shard_of(v);
        ASSERT_LT(s, 8U);
        EXPECT_GE(s, prev);  // contiguous blocks: shard is monotone in v
        prev = s;
        ++counts[s];
    }
    for (const std::size_t c : counts) {
        EXPECT_GE(c, n / 8);  // every shard owns a near-equal block
        EXPECT_LE(c, n / 8 + 1);
    }
}

TEST(WindowedExecutor, DefaultWindowTracksLambda) {
    EXPECT_DOUBLE_EQ(default_window(1.0), 0.25);
    EXPECT_DOUBLE_EQ(default_window(0.5), 0.25);  // floor at rate 1
    EXPECT_DOUBLE_EQ(default_window(4.0), 0.0625);
    const WindowedExecutor<int> executor(10, options(2, 0.0), Rng(1));
    EXPECT_DOUBLE_EQ(executor.window_width(), 0.25);
}

TEST(WindowedExecutor, EventExactlyAtWindowEndBelongsToNextWindow) {
    // The window interval is half-open: [T_min, T_min + delta).
    WindowedExecutor<int> executor(8, options(1, 1.0), Rng(3));
    executor.seed(0, 0.0, 1);
    executor.seed(0, 1.0, 2);  // exactly T_min + delta
    std::vector<int> seen;
    const auto handler = [&](auto& /*ctx*/, Time /*t*/, int payload) {
        seen.push_back(payload);
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1}));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1.0);

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(executor.window_end(), 2.0);
    EXPECT_TRUE(executor.empty());
    EXPECT_FALSE(executor.run_window(handler));
    EXPECT_EQ(executor.windows_run(), 2U);
    EXPECT_EQ(executor.events_processed(), 2U);
}

TEST(WindowedExecutor, EmptyTimeStretchesAreSkippedInOneWindow) {
    // The next window opens at the globally earliest pending timestamp,
    // not at the end of the previous window: a 1000-unit gap costs one
    // window, not 1000 of them.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(4));
    executor.seed(0, 0.5, 1);
    executor.seed(1, 1000.25, 2);
    std::vector<int> seen;
    const auto handler = [&](auto& /*ctx*/, Time /*t*/, int payload) {
        seen.push_back(payload);
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1.5);
    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_DOUBLE_EQ(executor.window_end(), 1001.25);
    EXPECT_EQ(executor.windows_run(), 2U);
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(WindowedExecutor, SameShardEmissionInsideWindowRunsThisWindow) {
    // A same-shard emit with time < window_end interleaves into the
    // current window (the queue orders it exactly).
    WindowedExecutor<int> executor(8, options(1, 1.0), Rng(5));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        if (payload == 1) {
            ctx.emit(0, t + 0.5, 2);   // inside [0, 1): this window
            ctx.emit(0, t + 1.25, 3);  // beyond the window: next one
        }
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(executor.stragglers(), 0U);
}

TEST(WindowedExecutor, CrossShardSendInsideWindowIsAStraggler) {
    // A cross-shard send whose timestamp lands inside the current window
    // waits at the barrier and runs first thing next window; the executor
    // counts it as a straggler.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(6));
    executor.seed(0, 0.0, 1);
    std::vector<int> seen;
    std::vector<std::uint64_t> seen_window;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        seen.push_back(payload);
        seen_window.push_back(executor.windows_run());
        if (payload == 1) {
            ctx.emit(1, t + 0.25, 2);  // inside shard 1's closed window
        }
    };

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1}));
    EXPECT_EQ(executor.stragglers(), 1U);

    ASSERT_TRUE(executor.run_window(handler));
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    EXPECT_EQ(seen_window, (std::vector<std::uint64_t>{1, 2}));
    // The straggler forced window 2 to open before window 1's end — the
    // two windows overlap in time.
    EXPECT_LT(executor.window_end() - executor.window_width(), 1.0);
    EXPECT_EQ(executor.stragglers(), 1U);
}

TEST(WindowedExecutor, OverlappingWindowsGetFreshSubstreams) {
    // The substream label is the monotone window counter, not
    // floor(T_min / delta): after a straggler the next window can replay
    // the same time interval, and a time-derived label would replay the
    // previous window's draws. Pin that consecutive windows starting at
    // the same T_min draw differently.
    WindowedExecutor<int> executor(8, options(2, 1.0), Rng(7));
    executor.seed(0, 0.0, 1);
    std::vector<std::uint64_t> draws;
    const auto handler = [&](auto& ctx, Time t, int payload) {
        draws.push_back(ctx.rng().next_u64());
        if (payload == 1) ctx.emit(1, t, 2);  // straggler at the SAME time
    };

    ASSERT_TRUE(executor.run_window(handler));
    ASSERT_TRUE(executor.run_window(handler));
    ASSERT_EQ(draws.size(), 2U);
    EXPECT_NE(draws[0], draws[1]);
}

TEST(WindowedExecutor, TrajectoryInvariantAcrossThreadCounts) {
    // The full (shard, time, payload, draw) tape is a pure function of
    // (seed, shards, window) — never the thread count. Same workload at
    // threads {1, 2, 8} must produce byte-identical tapes.
    struct Step {
        std::size_t shard;
        Time time;
        int payload;
        std::uint64_t draw;
        bool operator==(const Step& o) const {
            return shard == o.shard && time == o.time &&
                   payload == o.payload && draw == o.draw;
        }
    };
    const auto run = [](std::size_t threads) {
        WindowedExecutor<int> executor(64, options(4, 0.5, threads), Rng(11));
        // Per-shard tapes: shards run concurrently, so each writes its
        // own vector; folding in shard order is deterministic.
        std::vector<std::vector<Step>> tapes(4);
        for (std::size_t s = 0; s < 4; ++s) {
            executor.seed(s, 0.1 * static_cast<double>(s + 1),
                          static_cast<int>(s));
        }
        const auto handler = [&](auto& ctx, Time t, int payload) {
            const std::uint64_t draw = ctx.rng().next_u64();
            tapes[ctx.shard()].push_back(Step{ctx.shard(), t, payload, draw});
            if (payload < 40) {
                // Bounce between shards and within the shard.
                const std::size_t target = (ctx.shard() + 1) % 4;
                ctx.emit(target, t + 0.05 + 1e-3 * (draw % 7), payload + 4);
                ctx.emit(ctx.shard(), t + 0.2, payload + 5);
            }
        };
        while (executor.run_window(handler)) {
        }
        std::vector<Step> tape;
        for (const auto& shard_tape : tapes) {
            tape.insert(tape.end(), shard_tape.begin(), shard_tape.end());
        }
        return tape;
    };

    const std::vector<Step> t1 = run(1);
    const std::vector<Step> t2 = run(2);
    const std::vector<Step> t8 = run(8);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
}

}  // namespace
}  // namespace papc::sim
