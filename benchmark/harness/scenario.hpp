/**
 * @file
 * The five benchmark workloads: their topologies, drivers and
 * windows, and one `Scenario` that builds, runs and drains one of them
 * through the simulator's public entry points (core::Testbed, the
 * guest endpoints, VrioModel/IoHypervisor accessors).
 */
#ifndef VRIO_BENCHMARK_SCENARIO_HPP
#define VRIO_BENCHMARK_SCENARIO_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "drivers.hpp"
#include "interpose/service.hpp"
#include "models/vrio.hpp"
#include "spans.hpp"
#include "workloads/open_loop.hpp"

namespace vrio::benchmark {

enum class DriverKind { Rr, Striped, OpenLoop, RandomRw };

struct Spec
{
    const char *name;
    DriverKind driver;
    unsigned vms;
    unsigned vmhosts;
    /** IOhost workers (per IOhost in rack mode). */
    unsigned workers;
    /** Rack IOhosts; 0 = the direct-cabled single-IOhost wiring. */
    unsigned iohosts;
    /** Event-loop threads of the measured run. */
    unsigned threads;
    /** Pinned shard count; 0 = unsharded. */
    unsigned shards;
    /** Simulated measured window at the reference run length. */
    sim::Tick window;
    /** Payload of the workload's data-carrying transport message. */
    uint32_t message_bytes;
    /** Block workloads: closed-loop readers/writers per VM. */
    unsigned readers;
    unsigned writers;
    /** Working-set slots (4 KB) per VM region or shared volume. */
    uint64_t slots;
};

/** All workloads, in the order BENCHMARK.json lists them. */
const std::vector<Spec> &specs();
const Spec *findSpec(const std::string &name);

/** Reference run length the windows in specs() are sized for. */
constexpr double kReferenceSeconds = 8.0;
/** Warm-up before every measured window. */
constexpr sim::Tick kWarmup = sim::Tick(30) * sim::kMillisecond;
/** Granularity of every runUntil call. */
constexpr sim::Tick kSlice = sim::Tick(10) * sim::kMillisecond;

/** Sums over all VMs of one scenario. */
struct Totals
{
    uint64_t submitted = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t mismatches = 0;
    uint64_t refused = 0;
    uint64_t outstanding = 0;
    uint64_t window_ok = 0;
    uint64_t window_writes = 0;
};

class Scenario
{
  public:
    /** Host spans of every call into the simulator go to @p log. */
    Scenario(const Spec &spec, uint64_t seed, unsigned threads,
             SpanLog &log);
    ~Scenario();

    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    /**
     * Build the testbed, settle the control channel, preload the
     * verified working set and start the drivers.  @return false if
     * the preload failed.
     */
    bool setup();
    /** Run the warm-up period. */
    void warmUp();

    /** Start recording measured-window latencies. */
    void beginWindow();
    /** Stop recording them. */
    void endWindow();
    /**
     * Traced run: arm the simulator's tracer (unsharded workloads
     * only; it is not thread-safe) and keep per-request spans.  Call
     * before setup().
     */
    void trace() { traced_ = true; }

    /**
     * Stop every driver and run until nothing is outstanding (or a
     * generous deadline passes).  @return requests left stranded.
     */
    uint64_t drain();
    /**
     * tenant_write: write a known pattern through the encrypting path
     * and read it back.  @return true on a match (or nothing to check).
     */
    bool readBack();

    /** Every observable of the run folded into one hash. */
    uint64_t fingerprint();

    Totals totals() const;
    const Spec &spec() const { return spec_; }
    sim::Simulation &sim() { return tb_->simulation(); }
    models::VrioModel &model() { return *model_; }
    unsigned vmCount() const { return spec_.vms; }
    const Ledger &ledger(unsigned vm) const { return *ledgers_.at(vm); }
    /** Latencies of the victims only on tenant_write, else all VMs. */
    bool countsInLatency(unsigned vm) const;
    /** Open-loop arrivals refused at VM @p vm's outstanding cap. */
    uint64_t refused(unsigned vm) const;
    /** True when block payloads pass an encryption chain. */
    bool encrypts() const { return !chains_.empty(); }

  private:
    const Spec &spec_;
    uint64_t seed_;
    unsigned threads_;
    SpanLog &log_;
    /** Seeds the content of every written or preloaded slot. */
    uint64_t key_;
    bool traced_ = false;
    std::vector<std::unique_ptr<interpose::Chain>> chains_;
    std::unique_ptr<core::Testbed> tb_;
    models::VrioModel *model_ = nullptr;
    std::vector<std::unique_ptr<TapEndpoint>> taps_;
    std::vector<std::unique_ptr<RrClient>> rr_;
    /** Next slot of each striped group (rack_read). */
    std::vector<uint64_t> cursors_;
    std::vector<std::unique_ptr<StripedReader>> striped_;
    std::vector<std::unique_ptr<RandomRw>> rw_;
    std::vector<std::unique_ptr<workloads::OpenLoopBlock>> open_;
    /** Each VM's accounting, indexed by VM. */
    std::vector<Ledger *> ledgers_;

    void runStep(sim::Tick step);
    bool preload();
    void startDrivers();
};

} // namespace vrio::benchmark

#endif // VRIO_BENCHMARK_SCENARIO_HPP
