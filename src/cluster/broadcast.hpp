#pragma once

/// \file broadcast.hpp
/// Standalone simulation of the inter-leader broadcast (§4.2, Theorem 28):
/// one leader holds a message; at every Poisson tick each clustered node
/// contacts its own leader and the leaders of two random nodes, and any
/// informed leader among the three informs the other two (push-pull). The
/// theorem asserts O(1) time to inform all leaders of floor-sized clusters;
/// bench/exp_multi_leader and the tests measure this directly.

#include <cstdint>
#include <vector>

#include "cluster/clustering.hpp"
#include "support/random.hpp"

namespace papc::cluster {

struct BroadcastResult {
    bool completed = false;       ///< all active leaders informed
    double time_to_all = 0.0;     ///< time until the last leader learned it
    double mean_inform_time = 0.0;
    std::size_t informed = 0;     ///< leaders informed at the end
    std::size_t total_leaders = 0;
};

/// Simulates the broadcast over an existing clustering. `source` is the
/// index of the initially informed cluster.
[[nodiscard]] BroadcastResult run_broadcast(
    const ClusteringResult& clustering, std::size_t source, double lambda,
    double max_time, Rng& rng);

}  // namespace papc::cluster
