/**
 * @file
 * Benchmark-owned guest drivers.  Each takes its inputs from the run's
 * seed and hands the simulator only generated requests; reads are
 * checked against the data the driver itself wrote (or preloaded).
 *
 * Threading: in a sharded run every driver callback fires on the shard
 * of the VM it serves, so all state below is per VM and only the main
 * thread reads it, between runs.  Callbacks in flight hold the drivers'
 * addresses, so none of them can be copied.
 */
#ifndef VRIO_BENCHMARK_DRIVERS_HPP
#define VRIO_BENCHMARK_DRIVERS_HPP

#include <cstdint>
#include <vector>

#include "models/endpoint.hpp"
#include "models/generator.hpp"
#include "sim/random.hpp"
#include "stats/histogram.hpp"

namespace vrio::benchmark {

/** 4 KB: the I/O size of every block workload. */
constexpr uint32_t kSlotBytes = 4096;
constexpr uint32_t kSlotSectors = kSlotBytes / 512;

/** One request's simulated lifetime, recorded in the traced run. */
struct RequestSpan
{
    uint64_t id = 0;
    sim::Tick start = 0;
    sim::Tick end = 0;
    bool write = false;
};

/** Per-VM request accounting since the driver started. */
struct Tally
{
    uint64_t submitted = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;     ///< completed with a non-Ok status
    uint64_t mismatches = 0; ///< data differed from what was written
    uint64_t outstanding = 0;
    /** Ok completions inside the measured window. */
    uint64_t window_ok = 0;
    /** Measured-window latencies [us]. */
    stats::Histogram read_us;
    stats::Histogram write_us;
};

/**
 * Window and span bookkeeping shared by all drivers.  The main thread
 * flips `measuring` and `recording` only between runs.
 */
class Ledger
{
  public:
    bool measuring = false;
    bool recording = false;

    Tally tally;

    void beginWindow();
    void complete(bool ok, bool write, sim::Tick start, sim::Tick end,
                  uint64_t id);
    /** Spans of the most recent requests (oldest first). */
    std::vector<RequestSpan> spans() const;

  private:
    static constexpr size_t kSpanCap = 4096;
    std::vector<RequestSpan> ring_;
    size_t next_ = 0;
};

/**
 * A GuestEndpoint that forwards to the model's endpoint and accounts
 * every block request passing through it.  Library workloads such as
 * workloads::OpenLoopBlock drive it unchanged.
 */
class TapEndpoint : public models::GuestEndpoint
{
  public:
    explicit TapEndpoint(models::GuestEndpoint &inner) : inner_(inner) {}

    TapEndpoint(const TapEndpoint &) = delete;
    TapEndpoint &operator=(const TapEndpoint &) = delete;

    Ledger ledger;

    hv::Vm &vm() override { return inner_.vm(); }
    net::MacAddress mac() const override { return inner_.mac(); }
    void sendNet(net::MacAddress dst, Bytes payload, uint64_t pad,
                 uint64_t messages) override;
    void setNetHandler(models::NetHandler handler) override;
    bool hasBlockDevice() const override { return inner_.hasBlockDevice(); }
    uint64_t blockCapacitySectors() const override
    {
        return inner_.blockCapacitySectors();
    }
    void submitBlock(block::BlockRequest req,
                     block::BlockCallback done) override;

  private:
    models::GuestEndpoint &inner_;
    uint64_t next_id_ = 0;
};

/** Deterministic 4 KB content of @p slot at write @p version. */
void fillSlot(uint64_t key, uint64_t slot, uint64_t version, uint8_t *out);
bool slotMatches(uint64_t key, uint64_t slot, uint64_t version,
                 const Bytes &data);

/**
 * Netperf-style UDP request/response from a rack generator session:
 * one transaction in flight, the guest echoes the request byte back
 * after its application cost.  The request byte comes from the seed
 * and the echo is checked.
 */
class RrClient
{
  public:
    RrClient(models::Generator &gen, models::GuestEndpoint &guest,
             sim::Random rng);

    RrClient(const RrClient &) = delete;
    RrClient &operator=(const RrClient &) = delete;

    Ledger ledger;

    void start();
    void stop() { stopped_ = true; }

  private:
    static constexpr double kServerCycles = 600;

    models::Generator &gen_;
    unsigned session_;
    models::GuestEndpoint &guest_;
    sim::Random rng_;
    bool stopped_ = false;
    uint8_t expect_ = 0;
    uint64_t id_ = 0;
    sim::Tick sent_at_ = 0;

    void send();
};

/**
 * Closed-loop 4 KB reader of the fig13 rack cell, striped across the
 * VMs homed on one IOhost: the group shares one cursor, so requests
 * the group issues back to back read adjacent slots of the shared
 * volume, the cross-VM adjacency the coalescer merges.  (Per-VM round
 * counters, as in fig13, drift apart for good after one VM stalls,
 * and a run then measures whichever phase the seed happened to hit.)
 * Every VM of a group must run on one shard: the cursor is unlocked.
 */
class StripedReader
{
  public:
    StripedReader(TapEndpoint &tap, uint64_t &cursor, unsigned depth,
                  uint64_t slots, uint64_t key);

    StripedReader(const StripedReader &) = delete;
    StripedReader &operator=(const StripedReader &) = delete;

    void start();
    void stop() { stopped_ = true; }

  private:
    static constexpr double kThinkCycles = 2500;

    TapEndpoint &tap_;
    uint64_t &cursor_;
    unsigned depth_;
    uint64_t slots_, key_;
    bool stopped_ = false;

    void loop();
};

/**
 * Closed-loop 4 KB random readers and writers over a private region
 * of slots [first, first + slots).  A shadow version per slot records
 * the last acknowledged write; a slot with a request in flight is not
 * picked again, so every read has exactly one correct answer.
 */
class RandomRw
{
  public:
    RandomRw(TapEndpoint &tap, unsigned readers, unsigned writers,
             uint64_t first, uint64_t slots, uint64_t key, sim::Random rng);

    RandomRw(const RandomRw &) = delete;
    RandomRw &operator=(const RandomRw &) = delete;

    void start();
    void stop() { stopped_ = true; }

  private:
    static constexpr double kThinkCycles = 2500;

    TapEndpoint &tap_;
    unsigned readers_, writers_;
    uint64_t first_, slots_, key_;
    sim::Random rng_;
    std::vector<uint32_t> version_;
    std::vector<uint8_t> busy_;
    uint32_t next_version_ = 0;
    bool stopped_ = false;

    void loop(bool writer);
};

/**
 * Writes slots [first, first + count) at version 0 through @p guest,
 * @p depth at a time.  Completion callbacks run on the guest's shard.
 */
class Preloader
{
  public:
    Preloader(models::GuestEndpoint &guest, uint64_t first, uint64_t count,
              uint64_t key, unsigned depth = 16);

    Preloader(const Preloader &) = delete;
    Preloader &operator=(const Preloader &) = delete;

    void start();
    bool done() const { return completed_ == count_; }
    uint64_t errors() const { return errors_; }

  private:
    models::GuestEndpoint &guest_;
    uint64_t first_, count_, key_;
    unsigned depth_;
    uint64_t issued_ = 0;
    uint64_t completed_ = 0;
    uint64_t errors_ = 0;

    void issue();
};

} // namespace vrio::benchmark

#endif // VRIO_BENCHMARK_DRIVERS_HPP
