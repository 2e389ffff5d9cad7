#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "crypto/modes.hpp"
#include "net/frame.hpp"
#include "net/tso.hpp"
#include "qos/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "transport/coalesce.hpp"
#include "transport/encap.hpp"
#include "transport/reassembly.hpp"
#include "transport/segmenter.hpp"

namespace vrio::benchmark {

namespace {

/** Results land here so the timed calls cannot be optimized away. */
volatile uint64_t g_sink = 0;

/**
 * Host nanoseconds per call of @p fn: batches sized to ~2 ms, median
 * of seven batches.
 */
template <typename F>
double
nsPerCall(F &&fn)
{
    using clock = std::chrono::steady_clock;
    auto batch = [&](uint64_t n) {
        uint64_t acc = 0;
        auto t0 = clock::now();
        for (uint64_t i = 0; i < n; ++i)
            acc += fn();
        double ns =
            std::chrono::duration<double, std::nano>(clock::now() - t0)
                .count();
        g_sink = g_sink + acc;
        return ns;
    };
    uint64_t n = 1;
    while (batch(n) < 2e6 && n < (uint64_t(1) << 24))
        n *= 2;
    std::vector<double> per;
    for (int r = 0; r < 7; ++r)
        per.push_back(batch(n) / double(n));
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

Bytes
randomBytes(size_t n, uint64_t seed)
{
    sim::Random rng(seed);
    Bytes b(n);
    for (auto &x : b)
        x = uint8_t(rng.next());
    return b;
}

double
sealVerify(size_t payload)
{
    Bytes msg = randomBytes(transport::TransportHeader::kSize + payload, 1);
    return nsPerCall([&]() -> uint64_t {
        transport::sealMessage(msg);
        return transport::verifyMessage(msg);
    });
}

double
encapRoundTrip(uint32_t len)
{
    sim::EventQueue eq;
    transport::Reassembler reasm(eq, net::kMtuVrioJumbo);
    transport::MessageAssembler assembler;
    Bytes payload = randomBytes(len, 2);
    auto src = net::MacAddress::local(1), dst = net::MacAddress::local(2);
    uint32_t wire = 0;
    uint64_t serial = 0;
    return nsPerCall([&]() -> uint64_t {
        transport::TransportHeader proto;
        proto.type = transport::MsgType::BlkResp;
        proto.device_id = 1;
        proto.request_serial = ++serial;
        proto.io_len = len;
        uint64_t got = 0;
        for (auto &seg : transport::segmentRequest(proto, payload)) {
            auto frame =
                transport::encapsulate(src, dst, ++wire, seg.hdr, seg.payload);
            for (auto &piece : net::tsoSegment(*frame, net::kMtuVrioJumbo))
                if (auto msg = reasm.feed(*piece))
                    if (auto whole = assembler.feed(std::move(*msg)))
                        got += whole->payload.size();
        }
        return got;
    });
}

double
coalescePlan()
{
    // Four IOhost groups of four VMs, arriving interleaved: the
    // rack_read staging pattern at coalesce_max 4.
    std::vector<transport::CoalesceEntry> staged;
    for (unsigned r = 0; r < 4; ++r) {
        for (unsigned g = 0; g < 4; ++g) {
            transport::CoalesceEntry e;
            e.device_id = g * 4 + r;
            e.serial = r;
            e.blk_type = uint8_t(virtio::BlkType::In);
            e.lba = (g * 64 + r) * 8;
            e.nsectors = 8;
            e.arrival = staged.size();
            staged.push_back(e);
        }
    }
    return nsPerCall([&]() -> uint64_t {
        return transport::planMergedRuns(staged, 4).size();
    });
}

double
frameMake(uint32_t len)
{
    net::EtherHeader eh;
    eh.dst = net::MacAddress::local(2);
    eh.src = net::MacAddress::local(1);
    eh.ether_type = 0x0800;
    Bytes payload = randomBytes(len, 3);
    return nsPerCall([&]() -> uint64_t {
        return net::makeFrame(eh, payload)->bytes.size();
    });
}

double
fairScheduler()
{
    qos::SchedulerConfig cfg;
    cfg.high_water = 96;
    cfg.tenant_floor = 48;
    qos::FairScheduler sched(cfg);
    for (uint32_t t = 0; t < 4; ++t)
        sched.setTenant(t, {1.0, t ? sim::Tick(500) * sim::kMicrosecond : 0});
    uint64_t token = 0;
    sim::Tick now = 0;
    auto push = [&]() {
        sched.push(uint32_t(token % 4), token, 1.0, now);
        ++token;
    };
    while (sched.queued() < 96)
        push();
    return nsPerCall([&]() -> uint64_t {
        now += sim::kMicrosecond;
        push();
        auto p = sched.pop(now);
        return p ? p->token : 0;
    });
}

double
ctr4k()
{
    crypto::Aes aes(Bytes(32, 0x7c));
    Bytes data = randomBytes(4096, 4);
    uint64_t nonce = 0;
    return nsPerCall([&]() -> uint64_t {
        return crypto::ctrCrypt(aes, ++nonce, data)[0];
    });
}

double
scheduleFire()
{
    // One call schedules and drains 1024 events at scattered delays.
    constexpr unsigned kEvents = 1024;
    sim::EventQueue eq;
    sim::Random rng(5);
    std::vector<sim::Tick> delays(kEvents);
    for (auto &d : delays)
        d = 1 + rng.uniformInt(0, 999);
    uint64_t fired = 0;
    return nsPerCall([&]() -> uint64_t {
               for (sim::Tick d : delays)
                   eq.schedule(d, [&fired]() { ++fired; });
               eq.runToCompletion();
               return fired;
           }) /
           kEvents;
}

} // namespace

LayerTimings
timeLayers(uint32_t message_bytes, SpanLog &log)
{
    LayerTimings t;
    {
        SpanLog::Scope s(log, "layer transport.checksum");
        t.seal_verify_data_ns = sealVerify(message_bytes);
        t.seal_verify_header_ns = sealVerify(0);
        t.checksum_ns_per_kb =
            t.seal_verify_data_ns /
            (double(transport::TransportHeader::kSize + message_bytes) /
             1024.0);
    }
    {
        SpanLog::Scope s(log, "layer transport.encap_segment_reasm");
        t.encap_4k_ns = encapRoundTrip(4096);
        t.encap_1b_ns = encapRoundTrip(1);
    }
    {
        SpanLog::Scope s(log, "layer transport.coalesce_plan");
        t.coalesce_plan_ns = coalescePlan();
    }
    {
        SpanLog::Scope s(log, "layer net.frame_make");
        t.frame_make_ns = frameMake(message_bytes);
    }
    {
        SpanLog::Scope s(log, "layer qos.enqueue_pop");
        t.fair_sched_ns = fairScheduler();
    }
    {
        SpanLog::Scope s(log, "layer crypto.ctr_4k");
        t.ctr_4k_ns = ctr4k();
    }
    {
        SpanLog::Scope s(log, "layer sim.schedule_fire");
        t.schedule_fire_ns = scheduleFire();
    }
    return t;
}

} // namespace vrio::benchmark
