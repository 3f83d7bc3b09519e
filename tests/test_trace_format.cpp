/**
 * @file
 * Unit tests for the `.mtrc` codec (src/workloads/trace/trace_format.*):
 * varint/zigzag/RLE primitives at their boundaries, encode/decode
 * round-trips, file IO, TraceReader stats, and downsampling.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "trace_test_util.hpp"
#include "workloads/trace/trace_format.hpp"
#include "workloads/trace/trace_reader.hpp"

using namespace morpheus;
using namespace morpheus::trace;

namespace {

std::uint64_t
varint_round_trip(std::uint64_t v)
{
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    const std::uint8_t *p = buf.data();
    std::uint64_t out = 0;
    EXPECT_TRUE(get_varint(p, buf.data() + buf.size(), out));
    EXPECT_EQ(p, buf.data() + buf.size());
    return out;
}

/** Expands an RLE payload through TraceReader::Cursor::pull: @p in is
 *  written as the one stream of an RLE container, which is opened
 *  without the record walk (the bytes are not records). */
std::vector<std::uint8_t>
rle_round_trip(const std::vector<std::uint8_t> &in)
{
    TraceHeader header;
    header.num_sms = 1;
    header.warps_per_sm = 1;
    header.rle = true;
    std::vector<std::uint8_t> bytes;
    put_header(bytes, header, 1);
    put_stream_section(bytes, 0, 0, 0, in, /*rle=*/true);

    TraceReader reader;
    std::string error;
    if (!reader.init(bytes.data(), bytes.size(), error, /*validate_records=*/false)) {
        ADD_FAILURE() << error;
        return {};
    }
    std::vector<std::uint8_t> out;
    TraceReader::Cursor c = reader.cursor(0);
    for (std::uint8_t b; c.pull(b);)
        out.push_back(b);
    EXPECT_TRUE(c.exhausted());
    return out;
}

Trace
sample_trace()
{
    Trace t;
    t.name = "sample";
    t.num_sms = 2;
    t.warps_per_sm = 3;
    t.has_profile = true;
    t.profile.high_frac = 0.25;
    t.profile.low_frac = 0.5;
    t.profile.seed = 0xFEED;

    for (std::uint32_t sm = 0; sm < 2; ++sm) {
        for (std::uint32_t warp = 0; warp < 3; ++warp) {
            TraceStream stream;
            stream.sm = sm;
            stream.warp = warp;
            if (sm == 1 && warp == 2) {
                t.streams.push_back(stream);  // a retired-empty warp
                continue;
            }
            std::uint64_t pc = 0;
            LineAddr line = 1000 * (sm + 1);
            for (int i = 0; i < 50; ++i) {
                TraceStep step;
                step.pc = pc;
                step.alu_instrs = static_cast<std::uint32_t>(i % 7);
                step.type = i % 5 == 0   ? AccessType::kWrite
                            : i % 11 == 0 ? AccessType::kAtomic
                                          : AccessType::kRead;
                step.num_lines = static_cast<std::uint32_t>(i % 4);
                for (std::uint32_t l = 0; l < step.num_lines; ++l) {
                    // Mix forward strides, backward jumps, and far jumps.
                    line = i % 9 == 0 ? line - 37 : line + 1 + 16 * l;
                    step.lines[l] = line;
                    // Distinct per-line classes so the v2 trailer is exercised.
                    step.cls[l] = static_cast<std::uint8_t>((i + l) % 3);
                }
                pc += 8 * (step.alu_instrs + (step.num_lines ? 1 : 0));
                stream.steps.push_back(step);
            }
            t.streams.push_back(std::move(stream));
        }
    }
    return t;
}

void
expect_traces_equal(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.num_sms, b.num_sms);
    EXPECT_EQ(a.warps_per_sm, b.warps_per_sm);
    EXPECT_EQ(a.has_profile, b.has_profile);
    if (a.has_profile) {
        EXPECT_EQ(a.profile.high_frac, b.profile.high_frac);
        EXPECT_EQ(a.profile.low_frac, b.profile.low_frac);
        EXPECT_EQ(a.profile.seed, b.profile.seed);
    }
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t s = 0; s < a.streams.size(); ++s) {
        EXPECT_EQ(a.streams[s].sm, b.streams[s].sm);
        EXPECT_EQ(a.streams[s].warp, b.streams[s].warp);
        ASSERT_EQ(a.streams[s].steps.size(), b.streams[s].steps.size());
        for (std::size_t r = 0; r < a.streams[s].steps.size(); ++r)
            EXPECT_EQ(a.streams[s].steps[r], b.streams[s].steps[r]) << "stream " << s
                                                                    << " record " << r;
    }
}

} // namespace

TEST(TraceCodec, VarintBoundaries)
{
    for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                            0xFFFF'FFFFULL, 1ULL << 62, ~0ULL})
        EXPECT_EQ(varint_round_trip(v), v);
}

TEST(TraceCodec, VarintRejectsTruncationAndOverlong)
{
    std::vector<std::uint8_t> buf;
    put_varint(buf, ~0ULL);
    ASSERT_EQ(buf.size(), 10u);
    for (std::size_t len = 0; len < buf.size(); ++len) {
        const std::uint8_t *p = buf.data();
        std::uint64_t out;
        EXPECT_FALSE(get_varint(p, buf.data() + len, out)) << "prefix " << len;
    }
    // An 11-byte continuation chain can never be a valid 64-bit varint.
    std::vector<std::uint8_t> overlong(11, 0x80);
    overlong.back() = 0x01;
    const std::uint8_t *p = overlong.data();
    std::uint64_t out;
    EXPECT_FALSE(get_varint(p, overlong.data() + overlong.size(), out));
}

TEST(TraceCodec, ZigzagBoundaries)
{
    const std::int64_t cases[] = {0, 1, -1, 63, -64, INT64_MAX, INT64_MIN};
    for (std::int64_t v : cases)
        EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
    EXPECT_EQ(zigzag_encode(0), 0u);
    EXPECT_EQ(zigzag_encode(-1), 1u);
    EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(TraceCodec, RleRoundTrips)
{
    const std::vector<std::vector<std::uint8_t>> cases = {
        {},
        {7},
        {1, 2, 3, 4, 5},
        std::vector<std::uint8_t>(3, 9),
        std::vector<std::uint8_t>(130, 9),
        std::vector<std::uint8_t>(131, 9),
        std::vector<std::uint8_t>(1000, 0),
        std::vector<std::uint8_t>(257, 0xAB),
    };
    for (const auto &in : cases)
        EXPECT_EQ(rle_round_trip(in), in);

    // Mixed literals and runs, deterministic pseudo-random content.
    std::vector<std::uint8_t> mixed;
    std::uint64_t x = 0x1234;
    for (int i = 0; i < 4096; ++i) {
        x = x * 6364136223846793005ULL + 1;
        const std::uint8_t b = static_cast<std::uint8_t>(x >> 56);
        const int run = b < 64 ? 1 + static_cast<int>(b % 9) : 1;
        mixed.insert(mixed.end(), run, b);
    }
    EXPECT_EQ(rle_round_trip(mixed), mixed);
}

TEST(TraceFormat, EncodeDecodeRoundTrip)
{
    const Trace t = sample_trace();
    for (bool rle : {true, false}) {
        Trace in = t;
        in.rle = rle;
        const auto bytes = in.encode();
        Trace out;
        std::string error;
        ASSERT_TRUE(Trace::decode(bytes.data(), bytes.size(), out, error)) << error;
        EXPECT_EQ(out.rle, rle);
        expect_traces_equal(in, out);
        // Byte-stable: decode -> re-encode is the identity on files.
        EXPECT_EQ(out.encode(), bytes);
    }
}

TEST(TraceFormat, EmptyTraceAndProfilelessRoundTrip)
{
    Trace t;
    t.name = "empty";
    t.num_sms = 1;
    t.warps_per_sm = 1;
    t.has_profile = false;
    const auto bytes = t.encode();
    Trace out;
    std::string error;
    ASSERT_TRUE(Trace::decode(bytes.data(), bytes.size(), out, error)) << error;
    expect_traces_equal(t, out);
}

TEST(TraceFormat, FileRoundTrip)
{
    const Trace t = sample_trace();
    const std::string path = ::testing::TempDir() + "/round_trip.mtrc";
    std::string error;
    ASSERT_TRUE(t.save_file(path, error)) << error;
    Trace out;
    ASSERT_TRUE(Trace::load_file(path, out, error)) << error;
    expect_traces_equal(t, out);
    std::remove(path.c_str());
}

TEST(TraceFormat, SaveRefusesOutOfCeilingTraces)
{
    Trace t = sample_trace();
    t.warps_per_sm = static_cast<std::uint32_t>(kMaxTraceWarpsPerSm + 1);
    const std::string path = ::testing::TempDir() + "/bad.mtrc";
    std::string error;
    EXPECT_FALSE(t.save_file(path, error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceFormat, StatsCountTypesAndClasses)
{
    const Trace t = sample_trace();
    const TraceStats st = test::EncodedTrace(t).stats();
    EXPECT_EQ(st.records, t.total_records());
    EXPECT_EQ(st.records, 250u);
    EXPECT_EQ(st.mem_records, st.reads + st.writes + st.atomics);
    // Classes are per line access in v2 (v1 stats only knew the record's
    // first line).
    EXPECT_EQ(st.lines,
              st.class_counts[0] + st.class_counts[1] + st.class_counts[2] +
                  st.class_counts[3]);
    EXPECT_GT(st.unique_lines, 0u);
    EXPECT_EQ(st.footprint_bytes, st.unique_lines * kLineBytes);
    // sample_trace has one warp recorded with zero steps.
    EXPECT_EQ(st.empty_streams, 1u);
}

TEST(TraceFormat, StatsCountClassCollisions)
{
    Trace t;
    t.num_sms = 1;
    t.warps_per_sm = 1;
    TraceStream stream;
    auto push = [&stream](LineAddr line, std::uint8_t cls) {
        TraceStep step;
        step.num_lines = 1;
        step.lines[0] = line;
        step.cls[0] = cls;
        stream.steps.push_back(step);
    };
    push(10, kClassHigh);
    push(10, kClassLow);          // disagrees with the first record -> collision
    push(20, kClassLow);
    push(20, kClassLow);          // agreement is not a collision
    push(30, kClassUncompressed);
    push(30, kClassUnknown);      // unknown never participates
    t.streams.push_back(std::move(stream));
    EXPECT_EQ(test::EncodedTrace(t).stats().class_collisions, 1u);
}

TEST(TraceFormat, V1EncodeDropsPerLineClasses)
{
    Trace t = sample_trace();
    t.version = kFormatVersionV1;
    const auto bytes = t.encode();
    ASSERT_GT(bytes.size(), 5u);
    EXPECT_EQ(bytes[4], kFormatVersionV1);

    Trace out;
    std::string error;
    ASSERT_TRUE(Trace::decode(bytes.data(), bytes.size(), out, error)) << error;
    EXPECT_EQ(out.version, kFormatVersionV1);
    // v1 carries only the first line's class; the rest decode as unknown.
    for (std::size_t s = 0; s < t.streams.size(); ++s) {
        for (std::size_t r = 0; r < t.streams[s].steps.size(); ++r) {
            const TraceStep &in = t.streams[s].steps[r];
            const TraceStep &got = out.streams[s].steps[r];
            EXPECT_EQ(got.cls[0], in.cls[0]);
            for (std::uint32_t l = 1; l < WarpStep::kMaxLinesPerInst; ++l)
                EXPECT_EQ(got.cls[l], kClassUnknown);
        }
    }
    // And v1 re-encodes byte-identically (decode -> encode identity holds
    // per version).
    EXPECT_EQ(out.encode(), bytes);

    // A v2 encode of the same steps is strictly richer but still
    // byte-stable.
    Trace v2 = sample_trace();
    const auto bytes2 = v2.encode();
    EXPECT_EQ(bytes2[4], kFormatVersion);
    Trace out2;
    ASSERT_TRUE(Trace::decode(bytes2.data(), bytes2.size(), out2, error)) << error;
    expect_traces_equal(v2, out2);
    EXPECT_NE(bytes2, bytes);
}

TEST(TraceFormat, DownsampleKeepsStreamPrefixes)
{
    Trace t = sample_trace();
    const auto before = t.streams[0].steps;
    downsample_trace(t, 0.5);
    for (const auto &stream : t.streams)
        EXPECT_LE(stream.steps.size(), 25u);
    ASSERT_EQ(t.streams[0].steps.size(), 25u);
    for (std::size_t i = 0; i < t.streams[0].steps.size(); ++i)
        EXPECT_EQ(t.streams[0].steps[i], before[i]);

    downsample_trace(t, 0.0);
    EXPECT_EQ(t.total_records(), 0u);

    // Non-finite fractions must not reach the float->integer cast (UB);
    // NaN keeps nothing rather than something arbitrary.
    Trace n = sample_trace();
    downsample_trace(n, std::nan(""));
    EXPECT_EQ(n.total_records(), 0u);

    // Still a valid, replayable (empty) trace.
    const auto bytes = t.encode();
    Trace out;
    std::string error;
    ASSERT_TRUE(Trace::decode(bytes.data(), bytes.size(), out, error)) << error;
}
