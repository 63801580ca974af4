#include "cluster/broadcast.hpp"

#include <algorithm>

#include "sim/latency.hpp"
#include "sim/scheduler_queue.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace papc::cluster {

namespace {

enum class EventKind : std::uint8_t { kTick, kContact };

struct EventPayload {
    EventKind kind = EventKind::kTick;
    NodeId node = 0;
    NodeId s1 = 0;
    NodeId s2 = 0;
};

}  // namespace

BroadcastResult run_broadcast(const ClusteringResult& clustering,
                              std::size_t source, double lambda,
                              double max_time, Rng& rng) {
    PAPC_CHECK(source < clustering.clusters.size());
    const std::size_t n = clustering.cluster_of.size();
    const std::size_t num_clusters = clustering.clusters.size();
    const sim::ExponentialLatency latency(lambda);

    std::vector<bool> informed(num_clusters, false);
    std::vector<double> inform_time(num_clusters, -1.0);
    informed[source] = true;
    inform_time[source] = 0.0;
    std::size_t informed_count = 1;

    // Every clustered node keeps a tick plus at most one contact in
    // flight; reserve accordingly.
    sim::EventQueue<EventPayload> queue;
    queue.reserve(2 * n);
    for (NodeId v = 0; v < n; ++v) {
        if (clustering.cluster_of[v] == kNoCluster) continue;  // passive
        queue.push(rng.exponential(1.0), EventPayload{EventKind::kTick, v, 0, 0});
    }

    auto sample_node = [&] { return static_cast<NodeId>(rng.uniform_index(n)); };

    double now = 0.0;
    while (!queue.empty() && informed_count < num_clusters) {
        auto entry = queue.pop();
        now = entry.time;
        if (now > max_time) break;
        const EventPayload& ev = entry.payload;

        switch (ev.kind) {
            case EventKind::kTick: {
                // Channels: own leader + two random nodes + their leaders;
                // dominated by two latency rounds (§4.2: T2'' ≼ 5·T2).
                const double delay =
                    std::max({latency.sample(rng), latency.sample(rng),
                              latency.sample(rng)}) +
                    std::max(latency.sample(rng), latency.sample(rng));
                queue.push(now + delay, EventPayload{EventKind::kContact, ev.node,
                                                     sample_node(), sample_node()});
                queue.push(now + rng.exponential(1.0),
                           EventPayload{EventKind::kTick, ev.node, 0, 0});
                break;
            }
            case EventKind::kContact: {
                const std::int32_t own = clustering.cluster_of[ev.node];
                const std::int32_t l1 = clustering.cluster_of[ev.s1];
                const std::int32_t l2 = clustering.cluster_of[ev.s2];
                const std::int32_t contacted[3] = {own, l1, l2};
                bool any = false;
                for (const std::int32_t c : contacted) {
                    if (c != kNoCluster && informed[static_cast<std::size_t>(c)]) {
                        any = true;
                        break;
                    }
                }
                if (any) {
                    for (const std::int32_t c : contacted) {
                        if (c == kNoCluster) continue;
                        const auto idx = static_cast<std::size_t>(c);
                        if (!informed[idx]) {
                            informed[idx] = true;
                            inform_time[idx] = now;
                            ++informed_count;
                        }
                    }
                }
                break;
            }
        }
    }

    BroadcastResult result;
    result.total_leaders = num_clusters;
    result.informed = informed_count;
    result.completed = informed_count == num_clusters;
    RunningStat times;
    double last = 0.0;
    for (std::size_t c = 0; c < num_clusters; ++c) {
        if (inform_time[c] >= 0.0) {
            times.add(inform_time[c]);
            last = std::max(last, inform_time[c]);
        }
    }
    result.time_to_all = last;
    result.mean_inform_time = times.mean();
    return result;
}

}  // namespace papc::cluster
