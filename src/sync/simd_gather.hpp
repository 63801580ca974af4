#pragma once

/// \file simd_gather.hpp
/// The packed-opinion gather of the sync round kernels: fill a contiguous
/// strip buffer with the sampled nodes' opinions so the decide loops read
/// sequentially.
///
/// It has a scalar loop and an AVX2 path (`_mm256_i64gather_epi64` — 4
/// random 64-bit word loads per instruction, then variable shifts for the
/// lane extraction) selected at runtime through support::active_simd().
/// The two paths load the same memory and produce byte-identical output
/// buffers — SIMD dispatch can never change a trajectory, only the rate
/// (pinned by tests/sync/simd_equivalence_test.cpp). The AVX2 body lives
/// in simd_gather.cpp behind __attribute__((target("avx2"))) so the rest
/// of the library still compiles for baseline x86-64 (and the
/// -DPAPC_DISABLE_SIMD build compiles it out entirely).
///
/// Algorithm 1's raw u64 state words are gathered by a scalar loop
/// (sync::RawGather64): `vpgatherqq` on them paid only in an L3-resident
/// band of n (see sync/round_kernel.hpp). The packed gather pays (1.3–1.6x at
/// n = 2^22) because its arrays are 4-16x smaller per node and it decodes
/// lanes, amortizing the gather latency over more work.

#include <cstddef>
#include <cstdint>

#include "opinion/types.hpp"

namespace papc::sync::simd {

/// Bit-packed lane gather: element i lives in
///   words[idx[i] >> index_shift], bits [(idx[i] & offset_mask) * w, +w)
/// with w = 1 << log2_lane_bits and lane_mask = (all-ones w-bit value).
/// A lane equal to lane_mask is the undecided sentinel and decodes to
/// kUndecided (for 32-bit lanes the sentinel already IS kUndecided, so
/// the decode is the identity there). This is PackedOpinionArray's
/// gather kernel — see opinion/packed_array.hpp for the layout contract.
void gather_packed(const std::uint64_t* words, const std::uint64_t* idx,
                   std::size_t count, unsigned log2_lane_bits, Opinion* out);

}  // namespace papc::sync::simd
