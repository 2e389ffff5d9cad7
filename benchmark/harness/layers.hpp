/**
 * @file
 * Host cost of single layer operations, timed from outside through
 * each layer's public functions on the workload's message sizes.
 */
#ifndef VRIO_BENCHMARK_LAYERS_HPP
#define VRIO_BENCHMARK_LAYERS_HPP

#include <cstdint>

#include "spans.hpp"

namespace vrio::benchmark {

struct LayerTimings
{
    /** transport: sealMessage + verifyMessage of one data message. */
    double seal_verify_data_ns = 0;
    /** ... and of a header-only message (the other direction). */
    double seal_verify_header_ns = 0;
    double checksum_ns_per_kb = 0;
    /** transport: segment + encapsulate + TSO + reassemble one message. */
    double encap_4k_ns = 0;
    double encap_1b_ns = 0;
    /** transport: planMergedRuns over 4 groups of 4 adjacent reads. */
    double coalesce_plan_ns = 0;
    /** net: build one frame carrying the data message. */
    double frame_make_ns = 0;
    /** qos: one push + pop on a 4-tenant FairScheduler at depth 96. */
    double fair_sched_ns = 0;
    /** crypto: AES-256-CTR over 4 KB. */
    double ctr_4k_ns = 0;
    /** sim: one EventQueue schedule plus its firing. */
    double schedule_fire_ns = 0;
};

/** Time every layer operation; each is recorded as a host span. */
LayerTimings timeLayers(uint32_t message_bytes, SpanLog &log);

} // namespace vrio::benchmark

#endif // VRIO_BENCHMARK_LAYERS_HPP
