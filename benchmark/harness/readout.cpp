#include "readout.hpp"

namespace vrio::benchmark {

using telemetry::LogHistogram;

double
HistSum::quantile(double q) const
{
    if (count == 0)
        return 0;
    uint64_t rank = uint64_t(q * double(count - 1)) + 1;
    uint64_t seen = 0;
    for (unsigned b = 0; b < LogHistogram::kBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank) {
            if (b == 0)
                return 0;
            double lo = double(LogHistogram::bucketLow(b));
            double hi = double(LogHistogram::bucketHigh(b));
            return lo + (hi - lo) / 2.0;
        }
    }
    return 0;
}

Snapshot
Snapshot::take(const telemetry::MetricsRegistry &metrics)
{
    using Kind = telemetry::MetricsRegistry::Kind;
    Snapshot s;
    metrics.forEach([&](const telemetry::MetricsRegistry::Series &x) {
        switch (x.kind) {
          case Kind::CounterK:
            s.counters_[x.name] += x.counter.value();
            break;
          case Kind::ProbeK:
            if (x.sampler)
                s.probes_[x.name] += x.sampler();
            break;
          case Kind::HistogramK: {
            HistSum &h = s.hists_[x.name];
            h.count += x.histogram.count();
            h.sum += x.histogram.sum();
            for (unsigned b = 0; b < LogHistogram::kBuckets; ++b)
                h.buckets[b] += x.histogram.bucketCount(b);
            break;
          }
          case Kind::GaugeK:
            break;
        }
    });
    return s;
}

uint64_t
Snapshot::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
Snapshot::probe(const std::string &name) const
{
    auto it = probes_.find(name);
    return it == probes_.end() ? 0 : it->second;
}

HistSum
Snapshot::histogram(const std::string &name) const
{
    auto it = hists_.find(name);
    return it == hists_.end() ? HistSum{} : it->second;
}

Snapshot
Snapshot::since(const Snapshot &before) const
{
    Snapshot d = *this;
    for (auto &[name, v] : d.counters_)
        v -= before.counter(name);
    for (auto &[name, v] : d.probes_)
        v -= before.probe(name);
    for (auto &[name, h] : d.hists_) {
        HistSum b = before.histogram(name);
        h.count -= b.count;
        h.sum -= b.sum;
        for (unsigned i = 0; i < LogHistogram::kBuckets; ++i)
            h.buckets[i] -= b.buckets[i];
    }
    return d;
}

} // namespace vrio::benchmark
