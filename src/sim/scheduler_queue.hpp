#pragma once

/// \file scheduler_queue.hpp
/// The event queue behind every discrete-event loop: sim::EventQueue, a
/// ladder queue (Tang/Goh/Thng '05) whose entries live in one slab.
///
/// Ordering contract: events pop in strict (time, seq) order, where seq is
/// the push index, so ties in time resolve by insertion order and a run is
/// a pure function of its push sequence. The windowed executor's shards,
/// the clustering pre-phase and the broadcast simulation all rely on it.
///
/// The ladder has three tiers:
///
///   - Top: an unsorted list for the far future. Every entry at or beyond
///     the top threshold parks here untouched; pushes are O(1).
///   - Rungs: when events below the threshold are needed, their span is
///     split into equal-width unsorted buckets. A bucket still too big
///     when its turn comes is split again into a finer rung, so sorting
///     effort lands on the imminent events only.
///   - Bottom: the current earliest batch, sorted descending by
///     (time, seq) so the minimum pops from the back in O(1).
///
/// Bottom sorts before every rung entry, rung i+1 refines the span of rung
/// i below its cursor, and Top lies at or beyond the threshold; each
/// transfer sorts with the same (time, seq) order, so the pop order is
/// exact. Degeneracy guards:
///   - a tie burst (zero time span) cannot be subdivided: the bucket is
///     sorted straight into Bottom whatever its size;
///   - rung recursion is capped at kMaxRungs, after which buckets are
///     sorted directly;
///   - a batch of at most kBottomMax entries never spawns a rung, so small
///     queues never pay for the ladder machinery.
///
/// Storage: all entries live in one slab of slots with a free list of
/// recycled slots. The slab is stored by column: keys {time, seq}, links
/// and payloads are parallel vectors indexed by slot. Top and every rung
/// bucket are singly linked lists threaded through the link column, so a
/// rung is a vector of list heads and Bottom a sorted vector of slot
/// indices. Links are 32-bit slot indices rather than pointers: the slab
/// may reallocate as it grows. A slot costs 20 bytes plus the payload; for
/// a payload of 4-byte alignment, such as every engine's event, that is
/// the size of the padded {time, seq, payload} entry.
///
/// Why columns: draining a bucket walks its list and sorts it by key,
/// touching the links and keys of entries pushed long before. In
/// {time, seq, payload, next} nodes that walk is a chain of dependent
/// misses into a slab larger than L2, so its cost follows the host's
/// memory latency. The key and link columns are 20 bytes a slot and stay
/// cache-resident; the payload column is read once per event, at pop.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "support/check.hpp"

namespace papc::sim {

template <typename Payload>
class EventQueue {
public:
    /// One popped event: when, push index, and the engine payload.
    struct Entry {
        Time time;
        std::uint64_t seq;
        Payload payload;
    };

    /// Bottom size beyond which an overflow spawns a rung instead of
    /// insertion-sorting further pushes.
    static constexpr std::size_t kBottomMax = 48;
    /// Rung recursion cap (tie-adjacent spans can resist subdivision).
    static constexpr std::size_t kMaxRungs = 8;

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Total number of events ever pushed; clear() keeps it, so the seq
    /// tie-break stream of a reused queue follows its whole push history.
    [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

    /// Slab slots in use or on the free list (diagnostics).
    [[nodiscard]] std::size_t slots() const { return keys_.size(); }

    /// Live rungs (diagnostics).
    [[nodiscard]] std::size_t rungs() const { return rungs_.size(); }

    /// Time of the earliest event; the queue must be non-empty. Not const:
    /// it may move the next batch into Bottom, which the following pop()
    /// would do anyway.
    [[nodiscard]] Time next_time() {
        PAPC_CHECK(size_ > 0);
        ensure_bottom();
        return keys_[bottom_.back()].time;
    }

    void push(Time time, Payload payload) {
        const std::uint32_t id = allocate(time, std::move(payload));
        ++size_;
        if (time >= top_threshold_) {
            links_[id] = top_;
            top_ = id;
            return;
        }
        // Coarsest rung first: the entry joins the first rung whose
        // bucket for `time` is not drained yet. Each rung files by one
        // bucket function, monotone in time, so an entry that falls
        // behind a rung's cursor is no later than anything that rung
        // still holds and no earlier than anything it drained; it belongs
        // to a finer rung or to Bottom, and the pop order stays exact
        // however the float edges round.
        for (Rung& rung : rungs_) {
            const std::size_t bucket = rung.bucket_of(time);
            if (bucket >= rung.cur) {
                link(rung, bucket, id);
                return;
            }
        }
        insert_bottom(id);
        if (bottom_.size() > kBottomMax && rungs_.size() < kMaxRungs &&
            keys_[bottom_.front()].time > keys_[bottom_.back()].time) {
            // Bottom overflow: push the sorted run back out into a fresh
            // (finest) rung; later pops re-sort only its head bucket.
            Batch batch{kNil, bottom_.size(), keys_[bottom_.back()].time,
                        keys_[bottom_.front()].time};
            for (const std::uint32_t bottom_id : bottom_) {
                links_[bottom_id] = batch.head;
                batch.head = bottom_id;
            }
            bottom_.clear();
            spawn_rung(batch);
        }
    }

    /// Removes and returns the earliest event; the queue must be non-empty.
    Entry pop() {
        PAPC_CHECK(size_ > 0);
        ensure_bottom();
        const std::uint32_t id = bottom_.back();
        bottom_.pop_back();
        --size_;
        links_[id] = free_;
        free_ = id;
        return Entry{keys_[id].time, keys_[id].seq, std::move(payloads_[id])};
    }

    /// Drops all pending events and their slots. pushed() survives.
    void clear() {
        keys_.clear();
        links_.clear();
        payloads_.clear();
        free_ = kNil;
        top_ = kNil;
        rungs_.clear();
        bottom_.clear();
        size_ = 0;
        top_threshold_ = -std::numeric_limits<Time>::infinity();
    }

    /// Hint that ~n events will be pending at once; never changes the pop
    /// order.
    void reserve(std::size_t n) {
        keys_.reserve(n);
        links_.reserve(n);
        payloads_.reserve(n);
    }

private:
    /// Null link. Slot indices stay below it (see allocate()).
    static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
    /// Bucket-count cap per rung.
    static constexpr std::size_t kMaxRungBuckets = std::size_t{1} << 20;

    /// The sort key of a slot, (time, seq), in one column: a push writes
    /// both to one cache line, and a sort that meets a tie reads the seq
    /// from the line it already holds.
    struct Key {
        Time time;
        std::uint64_t seq;
    };

    struct Rung {
        Time base = 0.0;      ///< start of bucket 0
        double scale = 1.0;   ///< buckets per time unit
        std::size_t cur = 0;  ///< buckets before this are drained
        std::size_t count = 0;
        std::vector<std::uint32_t> heads;  ///< one list head per bucket

        /// floor((time - base) * scale), clamped to the bucket range.
        [[nodiscard]] std::size_t bucket_of(Time time) const {
            const double offset = (time - base) * scale;
            if (offset >= static_cast<double>(heads.size())) {
                return heads.size() - 1;
            }
            return offset > 0.0 ? static_cast<std::size_t>(offset) : 0;
        }
    };

    std::uint32_t allocate(Time time, Payload&& payload) {
        const std::uint64_t seq = next_seq_++;
        if (free_ != kNil) {
            const std::uint32_t id = free_;
            free_ = links_[id];
            keys_[id] = Key{time, seq};
            links_[id] = kNil;
            payloads_[id] = std::move(payload);
            return id;
        }
        // Links are u32 and kNil is reserved, so the slab must never
        // reach 2^32 - 1 slots.
        PAPC_CHECK(keys_.size() + 1 < kNil);
        keys_.push_back(Key{time, seq});
        links_.push_back(kNil);
        payloads_.push_back(std::move(payload));
        return static_cast<std::uint32_t>(keys_.size() - 1);
    }

    /// (time, seq) order of two slots.
    [[nodiscard]] bool earlier(std::uint32_t a, std::uint32_t b) const {
        const Key& x = keys_[a];
        const Key& y = keys_[b];
        if (x.time != y.time) return x.time < y.time;
        return x.seq < y.seq;
    }

    void link(Rung& rung, std::size_t bucket, std::uint32_t id) {
        std::uint32_t& head = rung.heads[bucket];
        links_[id] = head;
        head = id;
        ++rung.count;
    }

    void insert_bottom(std::uint32_t id) {
        // Descending: before the first entry that pops earlier than `id`.
        const auto pos = std::upper_bound(
            bottom_.begin(), bottom_.end(), id,
            [this](std::uint32_t value, std::uint32_t element) {
                return earlier(element, value);
            });
        bottom_.insert(pos, id);
    }

    /// A list about to leave its tier: head, length and time span.
    struct Batch {
        std::uint32_t head;
        std::size_t count;
        Time lo;
        Time hi;
    };

    [[nodiscard]] Batch measure(std::uint32_t head) const {
        Batch batch{head, 0, keys_[head].time, keys_[head].time};
        for (std::uint32_t id = head; id != kNil; id = links_[id]) {
            ++batch.count;
            batch.lo = std::min(batch.lo, keys_[id].time);
            batch.hi = std::max(batch.hi, keys_[id].time);
        }
        return batch;
    }

    /// Relinks `batch` (lo < hi) into a new finest rung.
    void spawn_rung(const Batch& batch) {
        Rung& rung = rungs_.emplace_back();
        const std::size_t n_buckets = std::min(batch.count, kMaxRungBuckets);
        rung.base = batch.lo;
        // Strictly cover [lo, hi]: the +1 bucket absorbs the maximum (and
        // float round-up) instead of an index clamp funnelling a pile-up
        // into the last bucket.
        rung.scale = static_cast<double>(n_buckets) / (batch.hi - batch.lo);
        rung.heads.assign(n_buckets + 1, kNil);
        for (std::uint32_t id = batch.head; id != kNil;) {
            const std::uint32_t next = links_[id];
            link(rung, rung.bucket_of(keys_[id].time), id);
            id = next;
        }
    }

    /// Moves the next batch of earliest events into Bottom, sorted.
    /// Requires size_ > 0; afterwards bottom_ is non-empty.
    void ensure_bottom() {
        while (bottom_.empty()) {
            // With every rung drained, the next batch is the whole Top.
            const bool from_top = rungs_.empty();
            std::uint32_t head = kNil;
            if (from_top) {
                PAPC_CHECK(top_ != kNil);
                head = std::exchange(top_, kNil);
            } else {
                Rung& rung = rungs_.back();
                if (rung.count == 0) {
                    rungs_.pop_back();
                    continue;
                }
                while (rung.heads[rung.cur] == kNil) ++rung.cur;
                head = rung.heads[rung.cur++];
            }
            const Batch batch = measure(head);
            if (!from_top) rungs_.back().count -= batch.count;
            const bool split = batch.count > kBottomMax &&
                               rungs_.size() < kMaxRungs && batch.hi > batch.lo;
            if (from_top) {
                // A split Top batch re-arms the threshold at its maximum:
                // later far-future pushes regenerate Top above it and
                // everything below rungs down. Equal-time entries split
                // across the boundary still pop in seq order (the rung's
                // were pushed earlier).
                top_threshold_ =
                    split ? batch.hi : std::numeric_limits<Time>::infinity();
            }
            if (split) {
                // Still too coarse: recurse into a finer rung.
                spawn_rung(batch);
            } else {
                for (std::uint32_t id = head; id != kNil; id = links_[id]) {
                    bottom_.push_back(id);
                }
                std::sort(bottom_.begin(), bottom_.end(),
                          [this](std::uint32_t a, std::uint32_t b) {
                              return earlier(b, a);
                          });
            }
        }
    }

    // The slab, by column (one entry per slot).
    std::vector<Key> keys_;
    std::vector<std::uint32_t> links_;  ///< next slot of the same list, or kNil
    std::vector<Payload> payloads_;
    std::uint32_t free_ = kNil;  ///< head of the free-slot list
    std::uint32_t top_ = kNil;   ///< unsorted list, time >= top_threshold_
    std::vector<Rung> rungs_;  ///< coarsest first; back() drains first
    std::vector<std::uint32_t> bottom_;  ///< sorted descending; min at back
    /// Starts at -inf: every push parks in Top until the first drain
    /// observes the schedule and picks a real threshold.
    Time top_threshold_ = -std::numeric_limits<Time>::infinity();
    std::size_t size_ = 0;
    std::uint64_t next_seq_ = 0;
};

/// Benchmark compatibility; delete with the next benchmark change. The one
/// queue kind left.
enum class QueueKind { kLadder };

/// Benchmark compatibility; delete with the next benchmark change. Builds
/// an EventQueue pre-sized for ~`reserve_hint` pending events.
template <typename Payload>
[[nodiscard]] std::unique_ptr<EventQueue<Payload>> make_scheduler_queue(
    QueueKind /*kind*/, std::size_t reserve_hint = 0) {
    auto queue = std::make_unique<EventQueue<Payload>>();
    queue->reserve(reserve_hint);
    return queue;
}

}  // namespace papc::sim
