/**
 * @file
 * Readout of the simulator's telemetry registry by series name:
 * counters, probes and log histograms summed over every label set, so
 * a window's work is the difference of two snapshots.
 */
#ifndef VRIO_BENCHMARK_READOUT_HPP
#define VRIO_BENCHMARK_READOUT_HPP

#include <array>
#include <map>
#include <string>

#include "telemetry/metrics.hpp"

namespace vrio::benchmark {

/** A log2 histogram merged over label sets. */
struct HistSum
{
    std::array<uint64_t, telemetry::LogHistogram::kBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;

    double mean() const { return count ? double(sum) / double(count) : 0; }
    /** Bucket-resolution quantile, as LogHistogram::quantile. */
    double quantile(double q) const;
};

class Snapshot
{
  public:
    static Snapshot take(const telemetry::MetricsRegistry &metrics);

    /** Counter @p name summed over labels (0 when absent). */
    uint64_t counter(const std::string &name) const;
    /** Probe @p name sampled and summed over labels. */
    double probe(const std::string &name) const;
    HistSum histogram(const std::string &name) const;

    /** Per-series differences (this - @p before). */
    Snapshot since(const Snapshot &before) const;

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> probes_;
    std::map<std::string, HistSum> hists_;
};

} // namespace vrio::benchmark

#endif // VRIO_BENCHMARK_READOUT_HPP
