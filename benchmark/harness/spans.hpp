/**
 * @file
 * Spans for the traced run: host-time spans around each call the
 * benchmark makes into the simulator, plus the per-request simulated
 * spans the drivers keep, written out together as Chrome trace JSON.
 */
#ifndef VRIO_BENCHMARK_SPANS_HPP
#define VRIO_BENCHMARK_SPANS_HPP

#include <chrono>
#include <string>
#include <vector>

#include "drivers.hpp"
#include "telemetry/trace.hpp"

namespace vrio::benchmark {

/** Host-time spans on the benchmark's main thread. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start_us;
        double dur_us;
    };

    /** Records [construction, destruction) as one span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name)
            : log_(log), name_(std::move(name)), start_(log.nowUs())
        {}
        ~Scope() { log_.add(std::move(name_), start_, log_.nowUs()); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::string name_;
        double start_;
    };

    /** Microseconds since this log was created. */
    double nowUs() const;
    void add(std::string name, double start_us, double end_us);
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
};

/**
 * Write @p host spans, the per-VM request spans and, when armed, the
 * simulator's own tracer ring to @p path.  @return false on I/O error.
 */
bool writeTrace(const std::string &path, const SpanLog &host,
                const std::vector<std::vector<RequestSpan>> &requests,
                const telemetry::Tracer &tracer);

} // namespace vrio::benchmark

#endif // VRIO_BENCHMARK_SPANS_HPP
