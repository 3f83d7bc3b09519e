#ifndef MORPHEUS_PERFBENCH_TRACE_HPP_
#define MORPHEUS_PERFBENCH_TRACE_HPP_

/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. Spans are
 * taken around the benchmark's own calls into each simulator layer, kept
 * in memory while the run lasts, and written once at the end as Chrome
 * trace-event JSON (chrome://tracing and Perfetto open it).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Microseconds on the steady clock since the first call. */
inline double
now_us()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch).count();
}

/** One timed call. Spans of one simulation job share @c job; @c parent
 *  is the id of the span that caused this one (0 for a root). */
struct Span
{
    std::string name;
    std::string layer;  ///< src/ module the call enters
    double start_us = 0;
    double dur_us = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t job = 0;
    std::uint64_t events = 0;  ///< simulator events executed inside the span
    unsigned tid = 0;
};

/** Total duration and count of the spans sharing one name. */
struct SpanTotal
{
    double us = 0;
    std::uint64_t count = 0;
};

/** Thread-safe span store (sweep workers record concurrently). */
class Tracer
{
  public:
    std::uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

    /** Records a span that started at @p start_us and ends now. */
    std::uint64_t
    record(std::string name, std::string layer, double start_us, std::uint64_t job,
           std::uint64_t parent, std::uint64_t events = 0, std::uint64_t id = 0)
    {
        return record_until(std::move(name), std::move(layer), start_us, now_us(), job, parent,
                            events, id);
    }

    /** Records a span from @p start_us to @p end_us. */
    std::uint64_t
    record_until(std::string name, std::string layer, double start_us, double end_us,
                 std::uint64_t job, std::uint64_t parent, std::uint64_t events = 0,
                 std::uint64_t id = 0)
    {
        Span s;
        s.name = std::move(name);
        s.layer = std::move(layer);
        s.start_us = start_us;
        s.dur_us = end_us - start_us;
        s.id = id ? id : next_id();
        s.parent = parent;
        s.job = job;
        s.events = events;
        s.tid = thread_index();
        const std::uint64_t out = s.id;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
        return out;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    /** Per-name totals of the spans recorded at positions [from, to). */
    std::map<std::string, SpanTotal>
    totals(std::size_t from, std::size_t to) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::map<std::string, SpanTotal> out;
        for (std::size_t i = from; i < to && i < spans_.size(); ++i) {
            SpanTotal &t = out[spans_[i].name];
            t.us += spans_[i].dur_us;
            ++t.count;
        }
        return out;
    }

    /** Writes every span as Chrome trace-event JSON ("X" events). */
    bool
    write_chrome(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        std::lock_guard<std::mutex> lock(mu_);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        bool first = true;
        for (const Span &s : spans_) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.start_us
               << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"job\":" << s.job
               << ",\"events\":" << s.events << "}}";
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    static unsigned
    thread_index()
    {
        static std::atomic<unsigned> next{0};
        thread_local const unsigned index = next.fetch_add(1, std::memory_order_relaxed);
        return index;
    }

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> ids_{0};
};

} // namespace perfbench

#endif // MORPHEUS_PERFBENCH_TRACE_HPP_
