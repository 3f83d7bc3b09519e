/**
 * @file
 * Streaming trace IO guarantees (trace_reader/trace_writer):
 *  - TraceFileWriter output is byte-identical to Trace::encode() of the
 *    equivalent materialized trace (one canonical encoding);
 *  - TraceReader reads back the header fields, and its stats() pass
 *    matches an independent count over the in-memory steps;
 *  - the headline scaling claim: replaying a generated >100 MB trace
 *    keeps peak trace-resident HEAP memory bounded by a small constant
 *    (the file itself is memory-mapped, records are decoded one at a
 *    time) — pinned by a global operator-new tracker in this binary.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <bit>
#include <map>
#include <new>
#include <string>
#include <vector>

#if defined(__linux__)
#include <malloc.h>
#define TRACKED_SIZE(p, n) malloc_usable_size(p)
#else
#define TRACKED_SIZE(p, n) (n)
#endif

#include "workloads/synthetic_workload.hpp"
#include "workloads/trace/trace_reader.hpp"
#include "workloads/trace/trace_recorder.hpp"
#include "workloads/trace/trace_workload.hpp"
#include "workloads/trace/trace_writer.hpp"

// ---------------------------------------------------------------------------
// Heap tracker: every (non-aligned) global new/delete in this binary is
// counted, so tests can assert a bound on peak live heap across a region.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void
track_alloc(void *p, [[maybe_unused]] std::size_t n)
{
    const std::uint64_t live =
        g_live_bytes.fetch_add(TRACKED_SIZE(p, n), std::memory_order_relaxed) +
        TRACKED_SIZE(p, n);
    std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live))
        ;
}

void
track_free(void *p, [[maybe_unused]] std::size_t n)
{
    if (p)
        g_live_bytes.fetch_sub(TRACKED_SIZE(p, n), std::memory_order_relaxed);
}

/** Resets the peak to the current live size and returns the live size. */
std::uint64_t
reset_peak()
{
    const std::uint64_t live = g_live_bytes.load();
    g_peak_bytes.store(live);
    return live;
}

} // namespace

void *
operator new(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    track_alloc(p, n);
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    track_free(p, 0);
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

// Out of line: inlined next to an inlined operator new, GCC pairs that
// malloc with this free and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p, std::size_t n) noexcept
{
    track_free(p, n);
    std::free(p);
}

void
operator delete[](void *p, std::size_t n) noexcept
{
    track_free(p, n);
    std::free(p);
}

using namespace morpheus;

namespace {

constexpr std::uint32_t kSms = 3;

WorkloadParams
small_params()
{
    WorkloadParams params;
    params.name = "stream-test";
    params.pattern = PatternKind::kStreamShared;
    params.warps_per_sm = 6;
    params.total_mem_instrs = 4000;
    params.shared_ws_bytes = 1 << 20;
    params.per_warp_ws_bytes = 32 * 1024;
    params.private_frac = 0.3;
    params.reuse_frac = 0.25;
    params.write_frac = 0.2;
    params.atomic_frac = 0.05;
    params.lines_per_mem = 3;
    return params;
}

trace::Trace
recorded_trace()
{
    const WorkloadParams params = small_params();
    SyntheticWorkload workload(params);
    return trace::record_trace(workload, kSms, &params.data);
}

/** Writes @p t through the streaming writer (not Trace::save_file). */
void
write_via_writer(const trace::Trace &t, const std::string &path)
{
    trace::TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, t, t.streams.size(), error)) << error;
    for (const auto &stream : t.streams) {
        ASSERT_TRUE(writer.begin_stream(stream.sm, stream.warp, error)) << error;
        for (const auto &step : stream.steps)
            ASSERT_TRUE(writer.add_step(step, error)) << error;
        ASSERT_TRUE(writer.end_stream(error)) << error;
    }
    ASSERT_TRUE(writer.close(error)) << error;
}

/** TraceStats counted straight off the in-memory steps: the oracle for
 *  TraceReader::stats. */
trace::TraceStats
count_stats(const trace::Trace &t)
{
    trace::TraceStats st;
    // Per unique line: a bitmask of the known classes it was recorded with.
    std::map<LineAddr, unsigned> known_classes;
    for (const auto &stream : t.streams) {
        st.empty_streams += stream.steps.empty();
        for (const auto &step : stream.steps) {
            ++st.records;
            st.alu_instrs += step.alu_instrs;
            if (step.num_lines == 0)
                continue;
            ++st.mem_records;
            st.lines += step.num_lines;
            st.reads += step.type == AccessType::kRead;
            st.writes += step.type == AccessType::kWrite;
            st.atomics += step.type == AccessType::kAtomic;
            for (std::uint32_t l = 0; l < step.num_lines; ++l) {
                ++st.class_counts[step.cls[l]];
                unsigned &mask = known_classes[step.lines[l]];
                if (step.cls[l] != trace::kClassUnknown)
                    mask |= 1u << step.cls[l];
            }
        }
    }
    st.unique_lines = known_classes.size();
    st.footprint_bytes = st.unique_lines * kLineBytes;
    for (const auto &entry : known_classes)
        st.class_collisions += std::popcount(entry.second) > 1;
    return st;
}

std::vector<std::uint8_t>
file_bytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return bytes;
    std::uint8_t buf[64 * 1024];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

} // namespace

TEST(TraceStream, WriterMatchesMaterializedEncodeByteForByte)
{
    trace::Trace t = recorded_trace();
    for (bool rle : {true, false}) {
        t.rle = rle;
        const std::string path = ::testing::TempDir() + "/writer_canonical.mtrc";
        write_via_writer(t, path);
        EXPECT_EQ(file_bytes(path), t.encode()) << "rle=" << rle;
        std::remove(path.c_str());
    }
}

TEST(TraceStream, ReaderStatsMatchMaterializedStats)
{
    const trace::Trace t = recorded_trace();
    const std::string path = ::testing::TempDir() + "/stats.mtrc";
    std::string error;
    ASSERT_TRUE(t.save_file(path, error)) << error;

    trace::TraceReader reader;
    ASSERT_TRUE(reader.open(path, error)) << error;
    EXPECT_EQ(reader.version(), trace::kFormatVersion);
    EXPECT_EQ(reader.num_sms(), t.num_sms);
    EXPECT_EQ(reader.warps_per_sm(), t.warps_per_sm);
    EXPECT_EQ(reader.total_records(), t.total_records());

    trace::TraceStats streamed;
    ASSERT_TRUE(reader.stats(streamed, error)) << error;
    const trace::TraceStats counted = count_stats(t);
    EXPECT_EQ(streamed.records, counted.records);
    EXPECT_EQ(streamed.mem_records, counted.mem_records);
    EXPECT_EQ(streamed.lines, counted.lines);
    EXPECT_EQ(streamed.reads, counted.reads);
    EXPECT_EQ(streamed.writes, counted.writes);
    EXPECT_EQ(streamed.atomics, counted.atomics);
    EXPECT_EQ(streamed.alu_instrs, counted.alu_instrs);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(streamed.class_counts[c], counted.class_counts[c]) << c;
    EXPECT_EQ(streamed.unique_lines, counted.unique_lines);
    EXPECT_EQ(streamed.footprint_bytes, counted.footprint_bytes);
    EXPECT_EQ(streamed.empty_streams, counted.empty_streams);
    EXPECT_EQ(streamed.class_collisions, counted.class_collisions);
    std::remove(path.c_str());
}

TEST(TraceStream, RejectsCorruptFilesAtOpen)
{
    const trace::Trace t = recorded_trace();
    const std::string path = ::testing::TempDir() + "/corrupt.mtrc";
    std::string error;
    ASSERT_TRUE(t.save_file(path, error)) << error;
    auto bytes = file_bytes(path);

    // Truncations and a payload bit-flip must fail at open(), not during
    // replay: the validation pass walks every record up front.
    for (std::size_t len : {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
                            bytes.size() - 1}) {
        const std::string cut = ::testing::TempDir() + "/corrupt_cut.mtrc";
        std::FILE *f = std::fopen(cut.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (len)
            std::fwrite(bytes.data(), 1, len, f);
        std::fclose(f);
        trace::TraceReader reader;
        error.clear();
        EXPECT_FALSE(reader.open(cut, error)) << "prefix " << len;
        EXPECT_FALSE(error.empty());
        std::remove(cut.c_str());
    }
    std::remove(path.c_str());
}

TEST(TraceStream, LargeTraceReplaysWithBoundedHeap)
{
    // Generate a >100 MB trace through the streaming writer (which itself
    // holds only one stream's payload), then stream-replay it and pin the
    // peak tracked-heap growth. The trace: 128 streams x 11k records x
    // 8 wide-delta lines -> ~75 encoded bytes per record, RLE off so the
    // file size equals the payload size.
    const std::string path = ::testing::TempDir() + "/large.mtrc";
    constexpr std::uint32_t kBigSms = 16;
    constexpr std::uint32_t kWarps = 8;
    constexpr std::uint32_t kRecordsPerStream = 12500;

    {
        trace::TraceHeader header;
        header.name = "large-synthetic";
        header.num_sms = kBigSms;
        header.warps_per_sm = kWarps;
        header.rle = false;
        header.has_profile = false;

        trace::TraceFileWriter writer;
        std::string error;
        ASSERT_TRUE(writer.open(path, header, kBigSms * kWarps, error)) << error;
        for (std::uint32_t sm = 0; sm < kBigSms; ++sm) {
            for (std::uint32_t warp = 0; warp < kWarps; ++warp) {
                ASSERT_TRUE(writer.begin_stream(sm, warp, error)) << error;
                std::uint64_t pc = 0;
                trace::TraceStep step;
                for (std::uint32_t r = 0; r < kRecordsPerStream; ++r) {
                    step.pc = pc;
                    pc += 8 * 4;
                    step.alu_instrs = 3;
                    step.type = AccessType::kRead;
                    step.num_lines = WarpStep::kMaxLinesPerInst;
                    for (std::uint32_t l = 0; l < step.num_lines; ++l) {
                        // Alternating wide jumps -> ~9-byte zigzag varints,
                        // so each record encodes to ~75 bytes.
                        const std::uint64_t wide = 1ULL << 59;
                        step.lines[l] = (r + l) % 2 ? wide + r + l : r + l;
                        step.cls[l] = trace::kClassUnknown;
                    }
                    ASSERT_TRUE(writer.add_step(step, error)) << error;
                }
                ASSERT_TRUE(writer.end_stream(error)) << error;
            }
        }
        ASSERT_TRUE(writer.close(error)) << error;
        EXPECT_EQ(writer.records_written(),
                  static_cast<std::uint64_t>(kBigSms) * kWarps * kRecordsPerStream);
    }

    std::size_t file_size = 0;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        file_size = static_cast<std::size_t>(std::ftell(f));
        std::fclose(f);
    }
    ASSERT_GE(file_size, 100u * 1024 * 1024) << "test trace too small";

    // ---- measured region: open (validates every record), build the
    // workload, and drain every stream to completion. ----
    const std::uint64_t live_before = reset_peak();

    trace::TraceReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, error)) << error;

    TraceWorkload workload(reader);
    workload.configure(kBigSms);
    std::uint64_t drained = 0;
    WarpStep out;
    for (std::uint32_t sm = 0; sm < kBigSms; ++sm) {
        const std::uint32_t warps = workload.warps_on(sm);
        for (std::uint32_t warp = 0; warp < warps; ++warp) {
            while (workload.next_step(sm, warp, out))
                ++drained;
        }
    }
    EXPECT_EQ(drained, static_cast<std::uint64_t>(kBigSms) * kWarps * kRecordsPerStream);

    const std::uint64_t peak = g_peak_bytes.load();
    const std::uint64_t growth = peak - live_before;

    // The bound: a small constant, nowhere near the file (or record)
    // size. 4 MiB is ~1/25th of the file and leaves slack for allocator
    // rounding; materializing would need >100 MB of TraceStep storage.
    EXPECT_LT(growth, 4u * 1024 * 1024)
        << "peak heap growth " << growth << " bytes for a " << file_size << "-byte trace";
    std::remove(path.c_str());
}
