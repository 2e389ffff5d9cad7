#include "drivers.hpp"

#include <cstring>

#include "hv/core.hpp"
#include "hv/vm.hpp"

namespace vrio::benchmark {

using virtio::BlkStatus;
using virtio::BlkType;

namespace {

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
ticksToUs(sim::Tick t)
{
    return sim::ticksToMicros(t);
}

} // namespace

// -- Ledger ------------------------------------------------------------

void
Ledger::beginWindow()
{
    measuring = true;
    tally.window_ok = 0;
    tally.read_us.reset();
    tally.write_us.reset();
}

void
Ledger::complete(bool ok, bool write, sim::Tick start, sim::Tick end,
                uint64_t id)
{
    --tally.outstanding;
    if (!ok) {
        ++tally.errors;
    } else {
        ++tally.ok;
        if (measuring) {
            ++tally.window_ok;
            (write ? tally.write_us : tally.read_us)
                .add(ticksToUs(end - start));
        }
    }
    if (!recording)
        return;
    RequestSpan s{id, start, end, write};
    if (ring_.size() < kSpanCap) {
        ring_.push_back(s);
    } else {
        ring_[next_] = s;
        next_ = (next_ + 1) % kSpanCap;
    }
}

std::vector<RequestSpan>
Ledger::spans() const
{
    std::vector<RequestSpan> out(ring_.begin() + long(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + long(next_));
    return out;
}

// -- TapEndpoint ------------------------------------------------------

void
TapEndpoint::sendNet(net::MacAddress dst, Bytes payload, uint64_t pad,
                     uint64_t messages)
{
    inner_.sendNet(dst, std::move(payload), pad, messages);
}

void
TapEndpoint::setNetHandler(models::NetHandler handler)
{
    inner_.setNetHandler(std::move(handler));
}

void
TapEndpoint::submitBlock(block::BlockRequest req, block::BlockCallback done)
{
    uint64_t id = next_id_++;
    bool write = req.kind == BlkType::Out;
    sim::Tick start = vm().sim().now();
    ++ledger.tally.submitted;
    ++ledger.tally.outstanding;
    inner_.submitBlock(std::move(req),
                       [this, id, write, start,
                        done = std::move(done)](BlkStatus s, Bytes data) {
                           ledger.complete(s == BlkStatus::Ok, write, start,
                                          vm().sim().now(), id);
                           done(s, std::move(data));
                       });
}

// -- slot contents ----------------------------------------------------

namespace {

/** First word of a slot's content; word i adds i golden-ratio steps. */
uint64_t
slotSeed(uint64_t key, uint64_t slot, uint64_t version)
{
    return mix(key ^ mix(slot) ^ (version << 40));
}

constexpr uint64_t kStep = 0x9e3779b97f4a7c15ull;

} // namespace

void
fillSlot(uint64_t key, uint64_t slot, uint64_t version, uint8_t *out)
{
    uint64_t x = slotSeed(key, slot, version);
    for (uint32_t i = 0; i < kSlotBytes; i += 8, x += kStep)
        std::memcpy(out + i, &x, 8);
}

bool
slotMatches(uint64_t key, uint64_t slot, uint64_t version,
            const Bytes &data)
{
    if (data.size() != kSlotBytes)
        return false;
    uint64_t x = slotSeed(key, slot, version);
    for (uint32_t i = 0; i < kSlotBytes; i += 8, x += kStep) {
        uint64_t got;
        std::memcpy(&got, data.data() + i, 8);
        if (got != x)
            return false;
    }
    return true;
}

// -- RrClient ---------------------------------------------------------

RrClient::RrClient(models::Generator &gen, models::GuestEndpoint &guest,
                   sim::Random rng)
    : gen_(gen), session_(gen.newSession()), guest_(guest), rng_(rng)
{
    guest_.setNetHandler([this](Bytes payload, net::MacAddress src,
                                uint64_t) {
        guest_.vm().vcpu().run(kServerCycles,
                               [this, src, payload = std::move(payload)]() {
                                   guest_.sendNet(src, payload);
                               });
    });
    gen_.setHandler(session_, [this](Bytes payload, net::MacAddress,
                                     uint64_t) {
        if (payload.size() != 1 || payload[0] != expect_)
            ++ledger.tally.mismatches;
        ledger.complete(true, false, sent_at_, gen_.sim().now(), id_);
        if (!stopped_)
            send();
    });
}

void
RrClient::start()
{
    send();
}

void
RrClient::send()
{
    expect_ = uint8_t(rng_.next());
    ++id_;
    sent_at_ = gen_.sim().now();
    ++ledger.tally.submitted;
    ++ledger.tally.outstanding;
    gen_.send(session_, guest_.mac(), Bytes(1, expect_));
}

// -- StripedReader ----------------------------------------------------

StripedReader::StripedReader(TapEndpoint &tap, uint64_t &cursor,
                             unsigned depth, uint64_t slots, uint64_t key)
    : tap_(tap), cursor_(cursor), depth_(depth), slots_(slots), key_(key)
{}

void
StripedReader::start()
{
    for (unsigned q = 0; q < depth_; ++q)
        loop();
}

void
StripedReader::loop()
{
    if (stopped_)
        return;
    uint64_t slot = cursor_++ % slots_;
    block::BlockRequest req;
    req.kind = BlkType::In;
    req.sector = slot * kSlotSectors;
    req.nsectors = kSlotSectors;
    tap_.submitBlock(std::move(req), [this, slot](BlkStatus s, Bytes data) {
        if (s == BlkStatus::Ok && !slotMatches(key_, slot, 0, data))
            ++tap_.ledger.tally.mismatches;
        tap_.vm().vcpu().runPreempt(kThinkCycles, [this]() { loop(); });
    });
}

// -- RandomRw ---------------------------------------------------------

RandomRw::RandomRw(TapEndpoint &tap, unsigned readers, unsigned writers,
                   uint64_t first, uint64_t slots, uint64_t key,
                   sim::Random rng)
    : tap_(tap), readers_(readers), writers_(writers), first_(first),
      slots_(slots), key_(key), rng_(rng), version_(slots, 0),
      busy_(slots, 0)
{}

void
RandomRw::start()
{
    for (unsigned t = 0; t < readers_; ++t)
        loop(false);
    for (unsigned t = 0; t < writers_; ++t)
        loop(true);
}

void
RandomRw::loop(bool writer)
{
    if (stopped_)
        return;
    uint64_t i = rng_.uniformInt(0, slots_ - 1);
    while (busy_[i])
        i = rng_.uniformInt(0, slots_ - 1);
    busy_[i] = 1;
    uint64_t slot = first_ + i;

    block::BlockRequest req;
    req.kind = writer ? BlkType::Out : BlkType::In;
    req.sector = slot * kSlotSectors;
    req.nsectors = kSlotSectors;
    uint32_t version = version_[i];
    if (writer) {
        version = ++next_version_;
        req.data.resize(kSlotBytes);
        fillSlot(key_, slot, version, req.data.data());
    }
    tap_.submitBlock(std::move(req), [this, writer, i, slot,
                                      version](BlkStatus s, Bytes data) {
        busy_[i] = 0;
        if (s == BlkStatus::Ok) {
            if (writer)
                version_[i] = version;
            else if (!slotMatches(key_, slot, version, data))
                ++tap_.ledger.tally.mismatches;
        }
        tap_.vm().vcpu().runPreempt(kThinkCycles,
                                    [this, writer]() { loop(writer); });
    });
}

// -- Preloader --------------------------------------------------------

Preloader::Preloader(models::GuestEndpoint &guest, uint64_t first,
                     uint64_t count, uint64_t key, unsigned depth)
    : guest_(guest), first_(first), count_(count), key_(key), depth_(depth)
{}

void
Preloader::start()
{
    for (unsigned q = 0; q < depth_ && issued_ < count_; ++q)
        issue();
}

void
Preloader::issue()
{
    uint64_t slot = first_ + issued_++;
    block::BlockRequest req;
    req.kind = BlkType::Out;
    req.sector = slot * kSlotSectors;
    req.nsectors = kSlotSectors;
    req.data.resize(kSlotBytes);
    fillSlot(key_, slot, 0, req.data.data());
    guest_.submitBlock(std::move(req), [this](BlkStatus s, Bytes) {
        ++completed_;
        if (s != BlkStatus::Ok)
            ++errors_;
        if (issued_ < count_)
            issue();
    });
}

} // namespace vrio::benchmark
