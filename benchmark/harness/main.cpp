/**
 * @file
 * vRIO benchmark: one workload per process.
 *
 *   vrio_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
 *              [--smoke]
 *
 * Every run starts with the correctness gate (a short run of the same
 * workload: data verified, requests conserved, no synchronous exits,
 * and for sharded workloads the same fingerprint at 1 and 4 threads).
 * `--smoke` stops there.  Otherwise an untraced run sets the workload
 * up at least three times (set-up time is their median), measures one
 * window and prints the end-to-end metrics; `--trace 1` instead prints the
 * per-layer metrics, repeats a prefix of the window with tracing on,
 * and writes benchmark/out/trace_<workload>.json (relative to the working
 * directory, the repository root).
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics": {name: {"value", "unit"}}}.  The exit code is 0
 * only when every check passed.
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "readout.hpp"
#include "scenario.hpp"
#include "spans.hpp"

using namespace vrio;
using namespace vrio::benchmark;

namespace {

/** Window of the correctness gate. */
constexpr sim::Tick kGateWindow = sim::Tick(20) * sim::kMillisecond;
/** Latency limit of the tenant_write victims. */
constexpr double kVictimSloUs = 500;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = kReferenceSeconds;
    bool trace = false;
    bool smoke = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return findSpec(a.workload) != nullptr;
}

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds used by every thread of this process. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

class Report
{
  public:
    void
    add(std::string name, double value, const char *unit)
    {
        metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0,
                            unit});
    }

    void
    print(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            char buf[64];
            auto res = std::to_chars(buf, buf + sizeof buf, metrics_[i].value);
            out += (i ? ", \"" : "\"") + metrics_[i].name +
                   "\": {\"value\": " + std::string(buf, res.ptr) +
                   ", \"unit\": \"" + metrics_[i].unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Metric> metrics_;
};

struct Checks
{
    std::vector<std::string> failures;

    void fail(std::string what) { failures.push_back(std::move(what)); }

    void
    expect(bool ok, std::string what)
    {
        if (!ok)
            fail(std::move(what));
    }
};

/** Failure accounting of one drained scenario. */
struct Outcome
{
    Totals totals;
    uint64_t stranded = 0;
    uint64_t abandoned = 0;

    uint64_t attempted() const { return totals.submitted + totals.refused; }
    uint64_t
    failed() const
    {
        return totals.errors + totals.mismatches + totals.refused +
               stranded + abandoned;
    }
};

Outcome
finish(Scenario &sc, SpanLog &log, Checks &checks, const std::string &tag)
{
    Outcome o;
    {
        SpanLog::Scope s(log, "drain");
        o.stranded = sc.drain();
    }
    bool readback;
    {
        SpanLog::Scope s(log, "read-back");
        readback = sc.readBack();
    }
    o.totals = sc.totals();
    auto &model = sc.model();
    for (unsigned k = 0; k < model.rackIoHostCount(); ++k)
        o.abandoned += model.rackHypervisor(k).requestsAbandoned();
    uint64_t sync_exits =
        sc.sim().telemetry().metrics.sumCounters("hv.vm.sync_exits");

    const Totals &t = o.totals;
    checks.expect(t.mismatches == 0,
                  tag + std::to_string(t.mismatches) +
                      " responses differ from the data written");
    checks.expect(t.ok + t.errors == t.submitted,
                  tag + "completions != submissions");
    checks.expect(o.stranded == 0,
                  tag + std::to_string(o.stranded) + " requests stranded");
    checks.expect(sync_exits == 0, tag + "synchronous exits on vRIO");
    checks.expect(readback, tag + "encrypted read-back mismatch");
    checks.expect(t.submitted > 0, tag + "no requests issued");
    return o;
}

/** One measured window and what the registry saw during it. */
struct Window
{
    sim::Tick ticks = 0;
    double host_s = 0;
    /**
     * Host cost per completed op: the 10th percentile over the
     * window's 10 ms slices.  Another process on the machine can only
     * slow a slice down, so a low quantile is steady where the mean is
     * not.  Periodic host work spaced wider than a slice hides from
     * it; sim.run_s (the whole window) still shows it.
     */
    double host_us_per_op = 0;
    /** Process CPU time (all threads) over the window. */
    double cpu_s = 0;
    double prefix_host_s = 0;
    uint64_t prefix_fp = 0;
    Snapshot delta;
    uint64_t submitted = 0;
    double held_mean = 0;
    double lag_mean = 0;
    double busy_ticks = 0;
    uint64_t contended = 0;
    uint64_t completed = 0;
    size_t workers = 0;
};

/**
 * Run @p slices 10 ms slices.  After @p prefix slices the host time
 * so far and the run's fingerprint are kept (0 = never).
 */
Window
measure(Scenario &sc, unsigned slices, unsigned prefix, SpanLog &log)
{
    Window w;
    auto &metrics = sc.sim().telemetry().metrics;
    auto resources = sc.model().ioResources();
    std::vector<sim::Tick> busy0;
    std::vector<uint64_t> cont0, done0;
    for (const auto *r : resources) {
        busy0.push_back(r->busyTicks());
        cont0.push_back(r->contendedJobs());
        done0.push_back(r->completed());
    }
    Snapshot before = Snapshot::take(metrics);
    uint64_t submitted0 = sc.totals().submitted;

    sc.beginWindow();
    double cpu0 = cpuNow();
    sim::Tick t0 = sc.sim().now();
    std::vector<double> slice_us_per_op;
    uint64_t ops = 0;
    for (unsigned i = 1; i <= slices; ++i) {
        double a = log.nowUs();
        sc.sim().runUntil(t0 + sim::Tick(i) * kSlice);
        double b = log.nowUs();
        log.add("runUntil slice " + std::to_string(i), a, b);
        w.host_s += (b - a) * 1e-6;
        uint64_t now_ops = sc.totals().window_ok;
        if (now_ops > ops)
            slice_us_per_op.push_back((b - a) / double(now_ops - ops));
        ops = now_ops;
        Snapshot s = Snapshot::take(metrics);
        w.held_mean += s.probe("repl.held_responses") / slices;
        w.lag_mean += s.probe("repl.lag") / slices;
        if (i == prefix) {
            w.prefix_host_s = w.host_s;
            w.prefix_fp = sc.fingerprint();
        }
    }
    sc.endWindow();
    w.cpu_s = cpuNow() - cpu0;
    if (!slice_us_per_op.empty()) {
        auto p10 = slice_us_per_op.begin() + slice_us_per_op.size() / 10;
        std::nth_element(slice_us_per_op.begin(), p10, slice_us_per_op.end());
        w.host_us_per_op = *p10;
    }
    w.ticks = sim::Tick(slices) * kSlice;
    {
        SpanLog::Scope s(log, "registry readout");
        w.delta = Snapshot::take(metrics).since(before);
    }
    w.submitted = sc.totals().submitted - submitted0;
    w.workers = resources.size();
    for (size_t i = 0; i < resources.size(); ++i) {
        w.busy_ticks += double(resources[i]->busyTicks() - busy0[i]);
        w.contended += resources[i]->contendedJobs() - cont0[i];
        w.completed += resources[i]->completed() - done0[i];
    }
    return w;
}

struct Latency
{
    stats::Histogram all;
    stats::Histogram reads;
    stats::Histogram writes;
};

Latency
latencies(const Scenario &sc)
{
    Latency l;
    for (unsigned v = 0; v < sc.vmCount(); ++v) {
        if (!sc.countsInLatency(v))
            continue;
        const Tally &t = sc.ledger(v).tally;
        for (double x : t.read_us.raw()) {
            l.all.add(x);
            l.reads.add(x);
        }
        for (double x : t.write_us.raw()) {
            l.all.add(x);
            l.writes.add(x);
        }
    }
    return l;
}

double
pct(const stats::Histogram &h, double p)
{
    return h.count() ? h.percentileInterpolated(p) : 0;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * The correctness gate: a short run with every check, and for a
 * sharded workload the same run at 1 thread must match it exactly.
 */
void
gate(const Spec &spec, uint64_t seed, SpanLog &log, Checks &checks,
     Outcome &outcome)
{
    auto once = [&](unsigned threads, uint64_t &fp) {
        std::string tag = std::string("gate t") + std::to_string(threads) +
                          ": ";
        Scenario sc(spec, seed, threads, log);
        if (!sc.setup()) {
            checks.fail(tag + "preload failed");
            return;
        }
        sc.beginWindow();
        sc.sim().runUntil(sc.sim().now() + kGateWindow);
        sc.endWindow();
        outcome = finish(sc, log, checks, tag);
        fp = sc.fingerprint();
    };
    SpanLog::Scope s(log, "correctness gate");
    uint64_t fp1 = 0, fpn = 0;
    once(1, fp1);
    if (spec.threads == 1 || !checks.failures.empty())
        return;
    once(spec.threads, fpn);
    checks.expect(fp1 == fpn, "fingerprint differs between 1 and " +
                                  std::to_string(spec.threads) +
                                  " threads at " +
                                  std::to_string(spec.shards) + " shards");
}

/**
 * A fresh set-up of @p spec at @p threads, measured over the first
 * @p prefix slices into @p w.  @return null if the set-up failed.
 */
std::unique_ptr<Scenario>
rerun(const Spec &spec, uint64_t seed, unsigned threads, bool traced,
      unsigned prefix, SpanLog &log, Window &w)
{
    auto sc = std::make_unique<Scenario>(spec, seed, threads, log);
    if (traced)
        sc->trace();
    if (!sc->setup())
        return nullptr;
    sc->warmUp();
    w = measure(*sc, prefix, prefix, log);
    return sc;
}

/** Mean of the slowest 1% of @p h's samples. */
double
worstPercentMean(const stats::Histogram &h)
{
    std::vector<double> v = h.raw();
    size_t k = std::max<size_t>(1, v.size() / 100);
    if (v.size() < k)
        return 0;
    std::nth_element(v.begin(), v.end() - long(k), v.end());
    double sum = 0;
    for (auto it = v.end() - long(k); it != v.end(); ++it)
        sum += *it;
    return sum / double(k);
}

void
endToEnd(Report &r, Scenario &sc, const Window &w, double setup_s)
{
    uint64_t ops = sc.totals().window_ok;
    Latency l = latencies(sc);
    r.add("host_us_per_op", w.host_us_per_op, "us");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("ops_per_s", double(ops) / sim::ticksToSeconds(w.ticks), "ops/s");
    r.add("lat_mean_us", l.all.mean(), "us");
    r.add("lat_worst1pct_us", worstPercentMean(l.all), "us");
}

void
perLayer(Report &r, Scenario &sc, const Window &w, const Outcome &o,
         const LayerTimings &lt, double speedup, double overhead)
{
    const Snapshot &d = w.delta;
    const Spec &spec = sc.spec();
    double ops = double(sc.totals().window_ok);
    auto per = [ops](double x) { return ops > 0 ? x / ops : 0; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    auto c = [&d](const char *name) { return double(d.counter(name)); };
    // Layer shares are of CPU time: a sharded run spreads its work
    // (and its barrier spinning) over several threads.
    double cpu_ns = w.cpu_s * 1e9;

    // sim
    double events = c("sim.events.fired");
    r.add("sim.events", events, "count");
    r.add("sim.events_per_op", per(events), "count");
    r.add("sim.host_ns_per_event", ratio(w.host_s * 1e9, events), "ns");
    r.add("sim.run_s", w.host_s, "s");
    r.add("sim.cpu_s", w.cpu_s, "s");
    r.add("sim.queue_depth_mean", d.histogram("sim.queue.depth").mean(),
          "count");
    r.add("sim.speedup_t4", speedup, "x");
    r.add("sim.schedule_fire_ns", lt.schedule_fire_ns, "ns");

    // transport
    double msgs = c("iohost.messages");
    double per_msg = spec.driver == DriverKind::Rr
                         ? 2 * lt.seal_verify_data_ns
                         : lt.seal_verify_data_ns + lt.seal_verify_header_ns;
    r.add("transport.checksum_ns_per_kb", lt.checksum_ns_per_kb, "ns");
    r.add("transport.checksum_host_share_est", ratio(msgs * per_msg, cpu_ns),
          "ratio");
    r.add("transport.encap_segment_reasm_ns_4k", lt.encap_4k_ns, "ns");
    r.add("transport.encap_segment_reasm_ns_1b", lt.encap_1b_ns, "ns");
    r.add("transport.retransmissions",
          d.probe("transport.rtq.retransmissions"), "count");
    r.add("transport.stale_responses", d.probe("transport.rtq.stale_responses"),
          "count");
    r.add("transport.dedup_suppressed", d.probe("iohost.dedup.suppressed"),
          "count");
    double staged = c("rack.coalesce.staged");
    r.add("transport.coalesce.merge_ratio",
          ratio(c("rack.coalesce.merged_parts"), staged), "ratio");
    r.add("transport.coalesce.parts_per_run",
          ratio(staged, c("rack.coalesce.runs")), "count");
    r.add("transport.coalesce_plan_ns", lt.coalesce_plan_ns, "ns");

    // net
    r.add("net.frames_per_op", per(c("net.link.delivered")), "count");
    r.add("net.nic_interrupts_per_op", per(c("net.nic.interrupts")), "count");
    r.add("net.bytes_per_op", per(c("net.link.bytes")), "B");
    r.add("net.drops",
          c("net.nic.rx_drops") + c("net.nic.rx_crc_drops") +
              c("net.link.lost") + c("net.switch.crc_drops") +
              c("net.switch.dead_port_drops"),
          "count");
    r.add("net.switch_floods", c("net.switch.flooded"), "count");
    r.add("net.frame_make_ns", lt.frame_make_ns, "ns");

    // hv
    r.add("hv.sync_exits_per_op", per(c("hv.vm.sync_exits")), "count");
    r.add("hv.guest_interrupts_per_op", per(c("hv.vm.guest_interrupts")),
          "count");
    r.add("hv.request_timeouts", c("hv.vm.request_timeouts"), "count");

    // iohost
    r.add("iohost.worker_busy_frac",
          ratio(w.busy_ticks, double(w.workers) * double(w.ticks)), "ratio");
    r.add("iohost.worker_service_mean_us",
          d.histogram("iohost.worker.service_ns").mean() / 1e3, "us");
    r.add("iohost.worker_residency_p99_us",
          d.histogram("iohost.worker.residency_ns").quantile(0.99) / 1e3,
          "us");
    r.add("iohost.inflight_at_dispatch_mean",
          d.histogram("iohost.inflight_at_dispatch").mean(), "count");
    r.add("iohost.contended_frac",
          ratio(double(w.contended), double(w.completed)), "ratio");
    r.add("iohost.polls_per_op", per(c("iohost.polls")), "count");
    r.add("iohost.messages_per_op", per(msgs), "count");
    r.add("iohost.copied_bytes_per_op", per(c("iohost.copied_bytes")), "B");
    r.add("iohost.repl.records_per_write",
          ratio(d.probe("repl.records_sent"),
                double(sc.totals().window_writes)),
          "count");
    r.add("iohost.repl.held_responses", w.held_mean, "count");
    r.add("iohost.repl.lag", w.lag_mean, "count");

    // qos (tenant_write only; VM 0 is the aggressor)
    Latency l = latencies(sc);
    double victim_over = 0, victim_n = 0, victim_failed = 0;
    stats::Histogram aggressor;
    if (spec.driver == DriverKind::OpenLoop) {
        for (unsigned v = 1; v < sc.vmCount(); ++v) {
            const Tally &t = sc.ledger(v).tally;
            victim_failed += double(t.errors + sc.refused(v));
        }
        for (double x : l.all.raw())
            victim_over += x > kVictimSloUs;
        victim_n = double(l.all.count());
        aggressor = sc.ledger(0).tally.write_us;
    }
    r.add("qos.shed_frac", ratio(c("qos.admission.shed"), double(w.submitted)),
          "ratio");
    r.add("qos.deferrals", c("qos.sched.deferrals"), "count");
    r.add("qos.promotions", c("qos.sched.promotions"), "count");
    r.add("qos.slo_violations", c("qos.slo.violations"), "count");
    r.add("qos.slo_miss_frac",
          ratio(victim_over + victim_failed, victim_n + victim_failed),
          "ratio");
    r.add("qos.aggressor_p99_us", pct(aggressor, 99), "us");
    r.add("qos.enqueue_pop_ns", lt.fair_sched_ns, "ns");

    // crypto: one AES-CTR pass per block op through the chain
    r.add("crypto.ctr_4k_ns", lt.ctr_4k_ns, "ns");
    r.add("crypto.host_share_est",
          sc.encrypts() ? ratio(c("iohost.blk_ops") * lt.ctr_4k_ns, cpu_ns)
                        : 0,
          "ratio");

    // nvme
    r.add("nvme.doorbells_per_op", per(c("nvme.doorbell.writes")), "count");
    r.add("nvme.cq_interrupts_per_op", per(c("nvme.cq.interrupts")), "count");
    r.add("nvme.sq_depth_mean", d.histogram("nvme.sq.depth").mean(), "count");

    // workloads
    r.add("workloads.samples", double(l.all.count()), "count");
    r.add("workloads.p50_us", pct(l.all, 50), "us");
    r.add("workloads.p99_us", pct(l.all, 99), "us");
    r.add("workloads.p999_us", pct(l.all, 99.9), "us");
    r.add("workloads.read_p99_us", pct(l.reads, 99), "us");
    r.add("workloads.write_p99_us", pct(l.writes, 99), "us");
    r.add("workloads.refused", double(o.totals.refused), "count");
    r.add("workloads.failed_frac",
          ratio(double(o.failed()), double(o.attempted())), "ratio");

    r.add("trace.overhead_frac", overhead, "ratio");
}

unsigned
windowSlices(const Spec &spec, double seconds)
{
    double ticks = double(spec.window) * seconds / kReferenceSeconds;
    return std::max(1u, unsigned(std::lround(ticks / double(kSlice))));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: vrio_bench --workload <name> --seed <n> "
                     "[--seconds <s>] [--trace 0|1] [--smoke]\n"
                     "workloads:");
        for (const Spec &s : specs())
            std::fprintf(stderr, " %s", s.name);
        std::fprintf(stderr, "\n");
        return 2;
    }
    // The benchmark fixes the topology and thread count itself; the
    // simulator's environment overrides must not change them.
    for (const char *v : {"VRIO_SIM_THREADS", "VRIO_RACK_IOHOSTS",
                          "VRIO_RACK_COALESCE", "VRIO_RACK_REPLICATION",
                          "VRIO_RACK_QOS", "VRIO_TRACE", "VRIO_METRICS"})
        unsetenv(v);

    const Spec &spec = *findSpec(args.workload);
    SpanLog log;
    Checks checks;
    Report report;
    Outcome outcome;

    auto conclude = [&]() {
        for (const auto &f : checks.failures)
            std::fprintf(stderr, "check failed: %s\n", f.c_str());
        report.print(checks.failures.empty(), outcome.attempted(),
                     outcome.failed());
        return checks.failures.empty() ? 0 : 1;
    };

    gate(spec, args.seed, log, checks, outcome);
    if (args.smoke || !checks.failures.empty())
        return conclude();

    const unsigned slices = windowSlices(spec, args.seconds);
    const unsigned prefix = args.trace ? std::max(1u, slices / 4) : 0;

    // Untraced, set up at least three times, and keep going while
    // set-ups are short (up to 15 within a second) so their median is
    // steady; traced, once.  The last set-up is the one measured.
    std::vector<double> setups;
    double setup_total = 0;
    std::unique_ptr<Scenario> sc;
    auto more = [&]() {
        if (args.trace)
            return setups.empty();
        return setups.size() < 3 || (setups.size() < 15 && setup_total < 1.0);
    };
    while (more()) {
        sc.reset();
        double a = hostNow();
        sc = std::make_unique<Scenario>(spec, args.seed, spec.threads, log);
        if (!sc->setup()) {
            checks.fail("preload failed");
            return conclude();
        }
        sc->warmUp();
        setups.push_back(hostNow() - a);
        setup_total += setups.back();
    }
    std::sort(setups.begin(), setups.end());

    Window w = measure(*sc, slices, prefix, log);
    outcome = finish(*sc, log, checks, "");

    if (!args.trace) {
        endToEnd(report, *sc, w, setups[setups.size() / 2]);
    } else {
        // The first quarter of the window again, traced, and for a
        // sharded workload at 1 thread: the simulated result must not
        // change, only the host time.
        Window tw, ow;
        auto traced = rerun(spec, args.seed, spec.threads, true, prefix, log,
                            tw);
        if (!traced) {
            checks.fail("traced preload failed");
            return conclude();
        }
        checks.expect(tw.prefix_fp == w.prefix_fp,
                      "traced run diverged from the untraced run");
        double overhead = tw.prefix_host_s / w.prefix_host_s - 1;
        double speedup = 1.0;
        if (spec.threads > 1) {
            if (!rerun(spec, args.seed, 1, false, prefix, log, ow)) {
                checks.fail("1-thread preload failed");
                return conclude();
            }
            checks.expect(ow.prefix_fp == w.prefix_fp,
                          "1-thread run diverged from the " +
                              std::to_string(spec.threads) + "-thread run");
            speedup = ow.prefix_host_s / w.prefix_host_s;
        }
        LayerTimings lt = timeLayers(spec.message_bytes, log);
        perLayer(report, *sc, w, outcome, lt, speedup, overhead);

        std::vector<std::vector<RequestSpan>> requests;
        for (unsigned v = 0; v < traced->vmCount(); ++v)
            requests.push_back(traced->ledger(v).spans());
        std::string path = std::string("benchmark/out/trace_") + spec.name +
                           ".json";
        checks.expect(writeTrace(path, log, requests,
                                 traced->sim().telemetry().tracer),
                      "cannot write " + path);
    }
    return conclude();
}
