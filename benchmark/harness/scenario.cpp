#include "scenario.hpp"

#include <cstring>

#include "hv/vm.hpp"
#include "interpose/services.hpp"
#include "util/logging.hpp"

namespace vrio::benchmark {

using models::ModelConfig;
using sim::kMicrosecond;
using sim::kMillisecond;

namespace {

constexpr sim::Tick kStep = sim::Tick(1) * kMillisecond;

/**
 * tenant_write tenants (the tab04mt QoS-on cell).  tab04mt runs its
 * aggressor at 8x, past the worker's ~97 kops/s, where half of its
 * arrivals are refused at the client cap.  At 3x the offered 90 kops/s
 * stays below capacity, so nothing is refused, and the admission
 * thresholds are lowered (high water 96 -> 48, tenant floor 48 -> 12)
 * so that the aggressor's bursts still cross them: about 0.1% of its
 * requests are shed and come back as client retransmissions.
 */
constexpr double kVictimRate = 15000;
constexpr double kAggressorRate = 3 * kVictimRate;
constexpr sim::Tick kVictimSlo = sim::Tick(500) * kMicrosecond;

uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv(uint64_t h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return fnv(h, bits);
}

uint64_t
fnv(uint64_t h, const std::string &s)
{
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ull;
    }
    return fnv(h, uint64_t(s.size()));
}

void
configure(const Spec &spec,
          std::vector<std::unique_ptr<interpose::Chain>> &chains,
          ModelConfig &mc)
{
    if (spec.iohosts) {
        mc.vrio_via_switch = true;
        mc.rack.iohosts = spec.iohosts;
    }
    if (spec.driver == DriverKind::Rr)
        return;
    mc.with_block = true;
    std::string name = spec.name;
    if (name == "rack_read") {
        mc.rack.shared_volume = true;
        mc.rack.coalesce = true;
        mc.rack.coalesce_max = 4;
        mc.rack.coalesce_window = sim::Tick(32) * kMicrosecond;
    } else if (name == "tenant_write") {
        // Encryption at rest makes the single worker, where the QoS
        // scheduler sits, the contended resource.
        mc.chain_factory = [&chains](uint32_t,
                                     bool is_block) -> interpose::Chain * {
            if (!is_block)
                return nullptr;
            Bytes key(32, 0x7c);
            auto chain = std::make_unique<interpose::Chain>();
            chain->append(std::make_unique<interpose::EncryptionService>(
                key, /*cycles_per_byte=*/4.0));
            chains.push_back(std::move(chain));
            return chains.back().get();
        };
        mc.rack.qos.enabled = true;
        mc.rack.qos.default_weight = 1.0;
        mc.rack.qos.high_water = 48;
        mc.rack.qos.tenant_floor = 12;
        mc.rack.qos.slos.assign(spec.vms, kVictimSlo);
        mc.rack.qos.slos[0] = 0;
    } else if (name == "repl_write") {
        mc.recovery.enabled = true;
        mc.rack.shared_volume = true;
        mc.rack.replication = true;
    } else if (name == "nvme_mixed") {
        mc.block_use_ssd = true;
        mc.ssd_cfg = block::SsdConfig::pcieSx300();
        mc.ssd_cfg.capacity_bytes = 16ull << 20;
        mc.block_backend = ModelConfig::BlockBackend::Nvme;
        mc.nvme_queue_depth = 32;
    }
}

} // namespace

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> all = {
        {"rr_net", DriverKind::Rr, 7, 1, 1, 0, 1, 0,
         sim::Tick(7000) * kMillisecond, 15, 0, 0, 0},
        {"rack_read", DriverKind::Striped, 16, 4, 2, 4, 4, 9,
         sim::Tick(380) * kMillisecond, kSlotBytes, 0, 0, 1024},
        {"tenant_write", DriverKind::OpenLoop, 4, 2, 1, 1, 1, 0,
         sim::Tick(620) * kMillisecond, kSlotBytes, 0, 0, 0},
        {"repl_write", DriverKind::RandomRw, 8, 2, 2, 2, 4, 5,
         sim::Tick(680) * kMillisecond, kSlotBytes, 2, 1, 512},
        {"nvme_mixed", DriverKind::RandomRw, 8, 1, 1, 0, 1, 0,
         sim::Tick(780) * kMillisecond, kSlotBytes, 3, 1, 512},
    };
    return all;
}

const Spec *
findSpec(const std::string &name)
{
    for (const Spec &s : specs())
        if (name == s.name)
            return &s;
    return nullptr;
}

Scenario::Scenario(const Spec &spec, uint64_t seed, unsigned threads,
                   SpanLog &log)
    : spec_(spec), seed_(seed), threads_(threads), log_(log),
      key_(sim::Random(seed).split("benchmark.data").next())
{}

Scenario::~Scenario() = default;

bool
Scenario::setup()
{
    core::TestbedOptions o;
    o.vmhosts = spec_.vmhosts;
    o.sidecores = spec_.workers;
    o.generators = 1;
    o.seed = seed_;
    o.threads = threads_;
    o.shards = spec_.shards;
    o.configure = [this](ModelConfig &mc) { configure(spec_, chains_, mc); };
    {
        SpanLog::Scope s(log_, "testbed build");
        tb_ = std::make_unique<core::Testbed>(models::ModelKind::Vrio,
                                              spec_.vms, o);
    }
    model_ = dynamic_cast<models::VrioModel *>(&tb_->model());
    if (traced_ && spec_.shards == 0)
        sim().telemetry().tracer.enable();
    {
        SpanLog::Scope s(log_, "settle");
        tb_->settle();
    }
    if (spec_.driver != DriverKind::Rr) {
        for (unsigned v = 0; v < spec_.vms; ++v)
            taps_.push_back(std::make_unique<TapEndpoint>(tb_->guest(v)));
        SpanLog::Scope s(log_, "preload");
        if (!preload())
            return false;
    }
    startDrivers();
    for (auto &t : taps_)
        ledgers_.push_back(&t->ledger);
    for (auto &r : rr_)
        ledgers_.push_back(&r->ledger);
    for (Ledger *p : ledgers_)
        p->recording = traced_;
    return true;
}

void
Scenario::runStep(sim::Tick step)
{
    sim().runUntil(sim().now() + step);
}

bool
Scenario::preload()
{
    // Every rack IOhost keeps its own replica of a shared volume, so
    // rack_read writes the volume once through a VM homed on each
    // (VM k boots on IOhost k); elsewhere each VM fills its own region.
    std::vector<std::unique_ptr<Preloader>> loads;
    if (spec_.driver == DriverKind::Striped) {
        for (unsigned k = 0; k < spec_.iohosts; ++k)
            loads.push_back(std::make_unique<Preloader>(tb_->guest(k), 0,
                                                        spec_.slots, key_));
    } else if (spec_.driver == DriverKind::RandomRw) {
        for (unsigned v = 0; v < spec_.vms; ++v) {
            uint64_t first = spec_.iohosts ? v * spec_.slots : 0;
            loads.push_back(std::make_unique<Preloader>(
                tb_->guest(v), first, spec_.slots, key_ + v));
        }
    }
    // Loader i writes through VM i.
    for (unsigned v = 0; v < loads.size(); ++v) {
        sim::ShardScope scope(sim(), tb_->guest(v).vm().homeShard());
        loads[v]->start();
    }
    auto busy = [&]() {
        for (auto &l : loads)
            if (!l->done())
                return true;
        return false;
    };
    sim::Tick deadline = sim().now() + sim::Tick(2000) * kMillisecond;
    while (busy() && sim().now() < deadline)
        runStep(kStep);
    for (auto &l : loads)
        if (!l->done() || l->errors())
            return false;
    return true;
}

void
Scenario::startDrivers()
{
    sim::Random root = sim::Random(seed_).split("benchmark.drivers");
    // The seed picks where each group's stripe begins.
    for (unsigned k = 0; k < spec_.iohosts; ++k)
        cursors_.push_back(root.split("stripe").split(uint64_t(k)).uniformInt(
            0, spec_.slots - 1));
    for (unsigned v = 0; v < spec_.vms; ++v) {
        sim::Random rng = root.split(uint64_t(v));
        sim::ShardScope scope(sim(), tb_->guest(v).vm().homeShard());
        switch (spec_.driver) {
          case DriverKind::Rr:
            rr_.push_back(std::make_unique<RrClient>(tb_->generator(0),
                                                     tb_->guest(v), rng));
            rr_.back()->start();
            break;
          case DriverKind::Striped: {
            // VM v boots on IOhost v % R and runs on VMhost v % H; with
            // R == H a group's cursor stays on one shard.
            unsigned group = v % spec_.iohosts;
            vrio_assert(tb_->guest(v).vm().homeShard() ==
                            tb_->guest(group).vm().homeShard(),
                        "striped group ", group, " spans shards");
            striped_.push_back(std::make_unique<StripedReader>(
                *taps_[v], cursors_[group], 4, spec_.slots, key_));
            striped_.back()->start();
            break;
          }
          case DriverKind::OpenLoop: {
            workloads::OpenLoopBlock::Config cfg;
            if (v == 0) {
                // The aggressor: one immortal connection streaming
                // heavy-tailed (alpha 1.5) bursts of writes.
                cfg.rate = kAggressorRate;
                cfg.write_fraction = 1.0;
            } else {
                cfg.rate = kVictimRate;
                cfg.pareto_alpha = 2.5;
                cfg.pareto_bound = 100;
                cfg.churn_ops_mean = 400;
            }
            open_.push_back(std::make_unique<workloads::OpenLoopBlock>(
                *taps_[v], rng, cfg));
            open_.back()->start();
            break;
          }
          case DriverKind::RandomRw: {
            uint64_t first = spec_.iohosts ? v * spec_.slots : 0;
            rw_.push_back(std::make_unique<RandomRw>(
                *taps_[v], spec_.readers, spec_.writers, first, spec_.slots,
                key_ + v, rng));
            rw_.back()->start();
            break;
          }
        }
    }
}

void
Scenario::warmUp()
{
    SpanLog::Scope s(log_, "warm-up");
    sim().runUntil(sim().now() + kWarmup);
}

void
Scenario::beginWindow()
{
    for (Ledger *p : ledgers_)
        p->beginWindow();
}

void
Scenario::endWindow()
{
    for (Ledger *p : ledgers_)
        p->measuring = false;
}

bool
Scenario::countsInLatency(unsigned vm) const
{
    return spec_.driver != DriverKind::OpenLoop || vm != 0;
}

uint64_t
Scenario::refused(unsigned vm) const
{
    return open_.empty() ? 0 : open_.at(vm)->overflows();
}

Totals
Scenario::totals() const
{
    Totals t;
    for (unsigned v = 0; v < spec_.vms; ++v) {
        const Tally &y = ledger(v).tally;
        t.submitted += y.submitted;
        t.ok += y.ok;
        t.errors += y.errors;
        t.mismatches += y.mismatches;
        t.outstanding += y.outstanding;
        t.window_ok += y.window_ok;
        t.window_writes += y.write_us.count();
        t.refused += refused(v);
    }
    return t;
}

uint64_t
Scenario::drain()
{
    for (auto &r : rr_)
        r->stop();
    for (auto &s : striped_)
        s->stop();
    for (auto &w : rw_)
        w->stop();
    for (auto &o : open_)
        o->stop();
    auto pending = [&]() {
        uint64_t n = totals().outstanding;
        for (unsigned v = 0; v < spec_.vms; ++v)
            n += model_->clientPendingBlocks(v);
        return n;
    };
    sim::Tick deadline = sim().now() + sim::Tick(500) * kMillisecond;
    while (pending() && sim().now() < deadline)
        runStep(kStep);
    return pending();
}

bool
Scenario::readBack()
{
    if (spec_.driver != DriverKind::OpenLoop)
        return true;
    // VM 1's last slot, through the raw endpoint so the workload's
    // accounting stays untouched.
    models::GuestEndpoint &guest = tb_->guest(1);
    uint64_t slot = guest.blockCapacitySectors() / kSlotSectors - 1;
    uint64_t k = key_;
    struct State
    {
        bool done = false;
        bool ok = false;
    };
    auto state = std::make_shared<State>();
    block::BlockRequest w;
    w.kind = virtio::BlkType::Out;
    w.sector = slot * kSlotSectors;
    w.nsectors = kSlotSectors;
    w.data.resize(kSlotBytes);
    fillSlot(k, slot, 1, w.data.data());
    {
        sim::ShardScope scope(sim(), guest.vm().homeShard());
        guest.submitBlock(std::move(w), [state, &guest, slot,
                                         k](virtio::BlkStatus s, Bytes) {
            if (s != virtio::BlkStatus::Ok) {
                state->done = true;
                return;
            }
            block::BlockRequest r;
            r.kind = virtio::BlkType::In;
            r.sector = slot * kSlotSectors;
            r.nsectors = kSlotSectors;
            guest.submitBlock(std::move(r), [state, slot,
                                             k](virtio::BlkStatus s2,
                                                Bytes data) {
                state->ok = s2 == virtio::BlkStatus::Ok &&
                            slotMatches(k, slot, 1, data);
                state->done = true;
            });
        });
    }
    sim::Tick deadline = sim().now() + sim::Tick(200) * kMillisecond;
    while (!state->done && sim().now() < deadline)
        runStep(kStep);
    return state->ok;
}

uint64_t
Scenario::fingerprint()
{
    uint64_t h = 0xcbf29ce484222325ull;
    using Kind = telemetry::MetricsRegistry::Kind;
    sim().telemetry().metrics.forEach(
        [&](const telemetry::MetricsRegistry::Series &s) {
            h = fnv(h, s.name);
            for (const auto &[k, v] : s.labels.kv)
                h = fnv(fnv(h, k), v);
            switch (s.kind) {
              case Kind::CounterK:
                h = fnv(h, s.counter.value());
                break;
              case Kind::GaugeK:
                h = fnv(h, s.gauge.value());
                break;
              case Kind::HistogramK:
                h = fnv(fnv(h, s.histogram.count()), s.histogram.sum());
                h = fnv(fnv(h, s.histogram.min()), s.histogram.max());
                break;
              case Kind::ProbeK:
                break;
            }
        });
    auto &reg = sim().stats();
    for (const auto &name : reg.counterNames())
        h = fnv(fnv(h, name), reg.counterValue(name));
    for (unsigned v = 0; v < spec_.vms; ++v) {
        const Tally &y = ledger(v).tally;
        for (uint64_t x : {y.submitted, y.ok, y.errors, y.mismatches,
                           y.outstanding, y.window_ok,
                           y.read_us.count(), y.write_us.count()})
            h = fnv(h, x);
        h = fnv(fnv(h, y.read_us.sum()), y.write_us.sum());
        h = fnv(h, refused(v));
    }
    return fnv(h, uint64_t(sim().now()));
}

} // namespace vrio::benchmark
