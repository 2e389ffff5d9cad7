#include "spans.hpp"

#include <filesystem>
#include <fstream>

namespace vrio::benchmark {

namespace {

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (uint8_t(c) >= 0x20)
            out += c;
    }
    return out;
}

double
tickUs(sim::Tick t)
{
    return sim::ticksToMicros(t);
}

} // namespace

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
SpanLog::add(std::string name, double start_us, double end_us)
{
    spans_.push_back({std::move(name), start_us, end_us - start_us});
}

bool
writeTrace(const std::string &path, const SpanLog &host,
           const std::vector<std::vector<RequestSpan>> &requests,
           const telemetry::Tracer &tracer)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream os(path);
    if (!os)
        return false;
    os.precision(12);

    bool first = true;
    auto event = [&]() -> std::ostream & {
        os << (first ? "\n" : ",\n");
        first = false;
        return os;
    };
    auto process = [&](int pid, const char *name) {
        event() << "{\"ph\":\"M\",\"pid\":" << pid
                << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << name
                << "\"}}";
    };
    auto thread = [&](int pid, size_t tid, const std::string &name) {
        event() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                << escape(name) << "\"}}";
    };

    os << "{\"traceEvents\":[";
    // pid 1: the simulator's own tracer (virtual time).
    process(1, "simulator tracer (simulated us)");
    std::vector<bool> used;
    tracer.forEach([&](const telemetry::TraceEvent &ev) {
        if (ev.track >= used.size())
            used.resize(ev.track + 1, false);
        used[ev.track] = true;
    });
    for (size_t t = 0; t < used.size(); ++t)
        if (used[t])
            thread(1, t, tracer.internedName(uint16_t(t)));
    tracer.forEach([&](const telemetry::TraceEvent &ev) {
        event() << "{\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":"
                << ev.track << ",\"ts\":" << tickUs(ev.ts);
        if (ev.phase == 'X')
            os << ",\"dur\":" << tickUs(ev.dur);
        else
            os << ",\"s\":\"t\"";
        os << ",\"name\":\"" << escape(tracer.internedName(ev.name))
           << "\",\"args\":{\"arg\":" << ev.arg << "}}";
    });

    // pid 2: one track per VM, a span per guest request.
    process(2, "guest requests (simulated us)");
    for (size_t vm = 0; vm < requests.size(); ++vm) {
        thread(2, vm, "vm" + std::to_string(vm));
        for (const RequestSpan &s : requests[vm]) {
            event() << "{\"ph\":\"X\",\"pid\":2,\"tid\":" << vm
                    << ",\"ts\":" << tickUs(s.start)
                    << ",\"dur\":" << tickUs(s.end - s.start)
                    << ",\"name\":\"" << (s.write ? "write" : "request")
                    << "\",\"args\":{\"id\":" << s.id << ",\"vm\":" << vm
                    << "}}";
        }
    }

    // pid 3: the benchmark's calls into the simulator (host time).
    process(3, "benchmark host calls (host us)");
    thread(3, 0, "main");
    for (const auto &s : host.spans()) {
        event() << "{\"ph\":\"X\",\"pid\":3,\"tid\":0,\"ts\":" << s.start_us
                << ",\"dur\":" << s.dur_us << ",\"name\":\""
                << escape(s.name) << "\"}";
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace vrio::benchmark
