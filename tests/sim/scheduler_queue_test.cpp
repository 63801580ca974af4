#include "sim/scheduler_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "support/random.hpp"

namespace papc::sim {
namespace {

using Queue = EventQueue<int>;
using Event = std::tuple<Time, std::uint64_t, int>;  // (time, seq, payload)

/// The oracle: every pushed event in a set ordered by (time, seq), with
/// seq the push index — the order EventQueue must pop in.
class ReferenceTape {
public:
    void push(Time time, int payload) {
        pending_.emplace(time, seq_++, payload);
    }
    Event pop() {
        const Event earliest = *pending_.begin();
        pending_.erase(pending_.begin());
        return earliest;
    }
    [[nodiscard]] bool empty() const { return pending_.empty(); }
    [[nodiscard]] std::size_t size() const { return pending_.size(); }
    void clear() { pending_.clear(); }  // seq_ survives, like pushed()

private:
    std::set<Event> pending_;
    std::uint64_t seq_ = 0;
};

/// An EventQueue and its oracle fed the same pushes.
struct Checked {
    Queue queue;
    ReferenceTape tape;

    void push(Time time, int payload) {
        queue.push(time, payload);
        tape.push(time, payload);
    }
};

/// Pops one event from both sides and demands the same (time, seq,
/// payload); returns the popped time.
Time pop_both(Checked& c) {
    const Event want = c.tape.pop();
    EXPECT_DOUBLE_EQ(c.queue.next_time(), std::get<0>(want));
    const Queue::Entry got = c.queue.pop();
    EXPECT_EQ(Event(got.time, got.seq, got.payload), want);
    EXPECT_EQ(c.queue.size(), c.tape.size());
    return got.time;
}

void drain_both(Checked& c) {
    while (!c.tape.empty()) {
        pop_both(c);
        if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(c.queue.empty());
}

/// Random interleaving of pushes and pops over an advancing front, like a
/// simulation: each push lands uniform(lo, hi) after the last pop.
void expect_reference_order(std::uint64_t seed, int ops, double lo, double hi,
                            bool quantize) {
    Checked c;
    Rng rng(seed);
    double now = 0.0;
    std::uint64_t pushes = 0;
    for (int op = 0; op < ops; ++op) {
        if (c.tape.empty() || rng.uniform() < 0.55) {
            ++pushes;
            double t = now + rng.uniform(lo, hi);
            // Quantized times manufacture cross-push ties.
            if (quantize) t = std::floor(t * 8.0) / 8.0;
            c.push(t, op);
        } else {
            now = pop_both(c);
        }
        ASSERT_FALSE(::testing::Test::HasFailure()) << "op " << op;
    }
    drain_both(c);
    EXPECT_EQ(c.queue.pushed(), pushes);
}

// ------------------------------------------------------- ordering contract

TEST(EventQueue, PopsInTimeOrder) {
    Queue q;
    q.push(3.0, 3);
    q.push(1.0, 1);
    q.push(2.0, 2);
    EXPECT_EQ(q.pop().payload, 1);
    EXPECT_EQ(q.pop().payload, 2);
    EXPECT_EQ(q.pop().payload, 3);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MassiveSameTimeBurstKeepsSeqOrder) {
    // A tie burst cannot be split into rungs; it sorts straight into
    // Bottom and must pop in push order.
    Queue q;
    constexpr int kBurst = 20000;
    for (int i = 0; i < kBurst; ++i) q.push(7.25, i);
    for (int i = 0; i < kBurst; ++i) {
        const Queue::Entry e = q.pop();
        ASSERT_EQ(e.payload, i);
        ASSERT_EQ(e.seq, static_cast<std::uint64_t>(i));
        ASSERT_DOUBLE_EQ(e.time, 7.25);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushBehindTheFrontIsPoppedFirst) {
    Queue q;
    q.push(10.0, 10);
    q.push(1.0, 1);
    EXPECT_EQ(q.pop().payload, 1);
    q.push(5.0, 5);
    q.push(0.5, 0);  // earlier than everything already popped past
    EXPECT_EQ(q.pop().payload, 0);
    EXPECT_EQ(q.pop().payload, 5);
    EXPECT_EQ(q.pop().payload, 10);
}

TEST(EventQueue, NextTimePeeksEarliestWithoutPopping) {
    Queue q;
    q.push(5.0, 0);
    q.push(2.0, 0);
    EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
    EXPECT_EQ(q.size(), 2U);
    q.pop();
    EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
    EXPECT_EQ(q.size(), 1U);
}

// ------------------------------------------------ oracle: whole schedules

TEST(EventQueueOracle, UniformSchedule) {
    expect_reference_order(101, 20000, 0.0, 1.0, false);
}

TEST(EventQueueOracle, QuantizedScheduleWithTies) {
    expect_reference_order(102, 20000, 0.0, 0.5, true);
}

TEST(EventQueueOracle, WideSchedule) {
    expect_reference_order(103, 8000, 0.0, 1000.0, false);
}

TEST(EventQueueOracle, NarrowSchedule) {
    expect_reference_order(104, 20000, 0.0, 1e-4, false);
}

TEST(EventQueueOracle, FarFutureOutliers) {
    // A dense head, a mid-range and far-future outliers: the outliers park
    // in Top while rungs refine the head, and must still pop last.
    Checked c;
    Rng rng(105);
    for (int op = 0; op < 30000; ++op) {
        const double roll = rng.uniform();
        double t = 0.0;
        if (roll < 0.90) {
            t = rng.uniform(0.0, 1.0);
        } else if (roll < 0.99) {
            t = rng.uniform(0.0, 100.0);
        } else {
            t = rng.uniform(1e6, 1e9);
        }
        c.push(t, op);
        if (op % 3 == 0) pop_both(c);
        ASSERT_FALSE(HasFailure()) << "op " << op;
    }
    drain_both(c);
}

TEST(EventQueueOracle, DrainAndRefillCycles) {
    // Every full drain re-arms the Top threshold; the next fill must rung
    // down afresh, in exact order.
    Checked c;
    Rng rng(106);
    double base = 0.0;
    for (int cycle = 0; cycle < 6; ++cycle) {
        const int fill = 1 << (6 + cycle);  // 64 .. 2048
        for (int i = 0; i < fill; ++i) c.push(base + rng.uniform(0.0, 2.0), i);
        while (!c.tape.empty()) {
            base = pop_both(c);
            ASSERT_FALSE(HasFailure()) << "cycle " << cycle;
        }
        EXPECT_TRUE(c.queue.empty());
    }
}

TEST(EventQueueOracle, TieBurstInterleavedWithOtherTimes) {
    Checked c;
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        c.push(5.0, 100000 + i);
        c.push(rng.uniform(0.0, 10.0), i);
    }
    drain_both(c);
}

// ------------------------------------------------------- ladder structure

TEST(EventQueue, BottomOverflowSpawnsARung) {
    // A small first batch goes straight to Bottom and sends the Top
    // threshold to +inf, so later pushes insert into Bottom until it
    // overflows kBottomMax and moves out into a rung.
    Checked c;
    for (int i = 0; i < 10; ++i) c.push(1.0 + 0.1 * i, i);
    pop_both(c);
    EXPECT_EQ(c.queue.rungs(), 0U);
    Rng rng(7);
    std::size_t pushes = 0;
    while (c.queue.rungs() == 0) {
        c.push(rng.uniform(1.0, 3.0), 100 + static_cast<int>(pushes));
        ASSERT_LE(++pushes, Queue::kBottomMax);
    }
    // Bottom held 9 entries; the push that took it past kBottomMax moved
    // them all out.
    EXPECT_EQ(9 + pushes, Queue::kBottomMax + 1);
    for (int i = 0; i < 200; ++i) c.push(rng.uniform(1.0, 4.0), 1000 + i);
    EXPECT_EQ(c.queue.rungs(), 1U);
    drain_both(c);
}

TEST(EventQueue, RungRecursionStopsAtTheCap) {
    // Tie-adjacent schedule: a tie burst at 0 next to 2^-j for j = 1..200.
    // Each rung's first bucket holds the burst plus the times too small to
    // separate from it, so every level recurses again; kMaxRungs stops the
    // descent and the last bucket sorts directly.
    Checked c;
    for (int i = 0; i < 1000; ++i) c.push(0.0, i);
    for (int j = 1; j <= 200; ++j) c.push(std::ldexp(1.0, -j), -j);
    std::size_t deepest = 0;
    while (!c.tape.empty()) {
        pop_both(c);
        ASSERT_FALSE(HasFailure());
        ASSERT_LE(c.queue.rungs(), Queue::kMaxRungs);
        deepest = std::max(deepest, c.queue.rungs());
    }
    EXPECT_EQ(deepest, Queue::kMaxRungs);
}

// ------------------------------------------------------- slab and reuse

TEST(EventQueue, SlotsAreRecycled) {
    Queue q;
    for (int i = 0; i < 1000; ++i) q.push(static_cast<double>(i), i);
    for (int i = 0; i < 600; ++i) q.pop();
    EXPECT_EQ(q.slots(), 1000U);
    // Freed slots take new pushes before the slab grows.
    for (int i = 0; i < 600; ++i) q.push(2000.0 + i, i);
    EXPECT_EQ(q.slots(), 1000U);
    q.push(5000.0, 0);
    EXPECT_EQ(q.slots(), 1001U);
    EXPECT_EQ(q.size(), 1001U);
}

TEST(EventQueue, PayloadsTravelWithTheirSlotThroughRecycling) {
    // Key, link and payload are separate columns: a recycled slot must
    // pop its own payload, and a move-only payload must move out intact.
    EventQueue<std::unique_ptr<int>> q;
    Rng rng(29);
    std::set<std::pair<Time, int>> tape;
    int next = 0;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 700; ++i, ++next) {
            const Time t = std::floor(rng.uniform(0.0, 50.0)) + round * 50.0;
            q.push(t, std::make_unique<int>(next));
            tape.emplace(t, next);
        }
        for (int i = 0; i < 500; ++i) {
            auto entry = q.pop();
            ASSERT_NE(entry.payload, nullptr);
            ASSERT_EQ(std::make_pair(entry.time, *entry.payload), *tape.begin());
            tape.erase(tape.begin());
        }
    }
    EXPECT_EQ(q.slots(), 1300U);  // 700 + 3 x 200 net growth
    while (!q.empty()) {
        auto entry = q.pop();
        ASSERT_EQ(std::make_pair(entry.time, *entry.payload), *tape.begin());
        tape.erase(tape.begin());
    }
    EXPECT_TRUE(tape.empty());
}

TEST(EventQueue, ClearThenReuseRecyclesSlotsAndKeepsPushedCount) {
    Checked c;
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) c.push(rng.uniform(0.0, 100.0), i);
    for (int i = 0; i < 100; ++i) pop_both(c);
    c.queue.clear();
    c.tape.clear();
    EXPECT_TRUE(c.queue.empty());
    EXPECT_EQ(c.queue.size(), 0U);
    EXPECT_EQ(c.queue.slots(), 0U);
    EXPECT_EQ(c.queue.rungs(), 0U);
    // pushed() (and hence the seq stream) survives a clear.
    EXPECT_EQ(c.queue.pushed(), 5000U);
    for (int i = 0; i < 1000; ++i) c.push(rng.uniform(0.0, 1.0), i);
    EXPECT_EQ(c.queue.pushed(), 6000U);
    EXPECT_EQ(c.queue.slots(), 1000U);
    for (int i = 0; i < 500; ++i) pop_both(c);
    for (int i = 0; i < 500; ++i) c.push(rng.uniform(1.0, 2.0), i);
    EXPECT_EQ(c.queue.slots(), 1000U);
    drain_both(c);
}

TEST(EventQueue, ReserveDoesNotChangeBehaviour) {
    Queue plain;
    Queue hinted;
    hinted.reserve(1 << 14);
    Rng rng_a(23);
    Rng rng_b(23);
    for (int i = 0; i < 3000; ++i) {
        plain.push(rng_a.uniform(), i);
        hinted.push(rng_b.uniform(), i);
    }
    while (!plain.empty()) {
        const Queue::Entry a = plain.pop();
        const Queue::Entry b = hinted.pop();
        ASSERT_DOUBLE_EQ(a.time, b.time);
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.payload, b.payload);
    }
    EXPECT_TRUE(hinted.empty());
}

TEST(EventQueue, CompatibilityFactoryBuildsAnEventQueue) {
    const auto q = make_scheduler_queue<int>(QueueKind::kLadder, 64);
    q->push(2.0, 2);
    q->push(1.0, 1);
    EXPECT_EQ(q->pop().payload, 1);
    EXPECT_EQ(q->size(), 1U);
}

// ------------------------------------------------------------- empty edges

using EventQueueDeathTest = ::testing::Test;

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
    Queue q;
    EXPECT_DEATH(q.pop(), "PAPC_CHECK failed");
}

TEST(EventQueueDeathTest, NextTimeOnEmptyAborts) {
    Queue q;
    q.push(1.0, 1);
    q.pop();
    EXPECT_DEATH((void)q.next_time(), "PAPC_CHECK failed");
}

}  // namespace
}  // namespace papc::sim
