/**
 * @file
 * Fuzz-style robustness tests for the `.mtrc` parser (TraceReader, which
 * Trace::decode drains into memory) and the text-trace converter:
 * truncated headers, corrupt varints, impossible record counts,
 * v1/v2 version confusion, malformed converter text, and thousands of
 * random bit/byte mutations must all produce a clean error — never UB,
 * a crash, or an unbounded allocation. The CI sanitize job
 * (MORPHEUS_SANITIZE=ON, ASan+UBSan, halt_on_error) runs this binary,
 * which is what turns "returns false" into "provably no UB" for this
 * corpus.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "workloads/trace/trace_convert.hpp"
#include "workloads/trace/trace_format.hpp"
#include "workloads/trace/trace_reader.hpp"

using namespace morpheus;
using namespace morpheus::trace;

namespace {

std::vector<std::uint8_t>
valid_trace_bytes(bool rle, std::uint8_t version = kFormatVersion)
{
    Trace t;
    t.name = "fuzz-seed";
    t.version = version;
    t.num_sms = 2;
    t.warps_per_sm = 2;
    t.rle = rle;
    t.has_profile = true;
    t.profile.high_frac = 0.3;
    t.profile.low_frac = 0.3;
    t.profile.seed = 77;
    for (std::uint32_t sm = 0; sm < 2; ++sm) {
        for (std::uint32_t warp = 0; warp < 2; ++warp) {
            TraceStream stream;
            stream.sm = sm;
            stream.warp = warp;
            LineAddr line = 64 * sm;
            for (int i = 0; i < 40; ++i) {
                TraceStep step;
                step.pc = 8ULL * static_cast<std::uint64_t>(i);
                step.alu_instrs = static_cast<std::uint32_t>(i % 5);
                step.num_lines = 1 + static_cast<std::uint32_t>(i % 3);
                for (std::uint32_t l = 0; l < step.num_lines; ++l) {
                    step.lines[l] = line += (i % 7 == 0 ? 4096 : 1);
                    step.cls[l] = static_cast<std::uint8_t>((i + l) % 3);
                }
                step.type = i % 4 ? AccessType::kRead : AccessType::kWrite;
                stream.steps.push_back(step);
            }
            t.streams.push_back(std::move(stream));
        }
    }
    return t.encode();
}

/** Decoding must return a verdict (and on success, sane bounds) —
 *  anything else (crash, sanitizer report, hang) fails the test run.
 *  TraceReader over the same bytes must agree with Trace::decode, except
 *  for the per-file record ceiling that only materializing decodes
 *  enforce. */
void
expect_no_ub(const std::vector<std::uint8_t> &bytes)
{
    Trace out;
    std::string error;
    const bool ok = Trace::decode(bytes.data(), bytes.size(), out, error);
    if (ok) {
        EXPECT_LE(out.streams.size(),
                  static_cast<std::size_t>(out.num_sms) * out.warps_per_sm);
        for (const auto &stream : out.streams) {
            for (const auto &step : stream.steps)
                EXPECT_LE(step.num_lines, WarpStep::kMaxLinesPerInst);
        }
    } else {
        EXPECT_FALSE(error.empty());
    }

    TraceReader reader;
    std::string rerror;
    const bool rok = reader.init(bytes.data(), bytes.size(), rerror);
    if (ok != rok) {
        EXPECT_TRUE(!ok && error.find("ceiling") != std::string::npos)
            << "parser disagreement: decode said '" << error << "', reader said '"
            << rerror << "'";
    }
    if (rok) {
        // A validated reader's cursors never fail mid-walk; the streaming
        // stats pass drains every record of every stream.
        TraceStats st;
        std::string serror;
        EXPECT_TRUE(reader.stats(st, serror)) << serror;
    } else {
        EXPECT_FALSE(rerror.empty());
    }
}

} // namespace

TEST(TraceFuzz, AllTruncationsError)
{
    for (std::uint8_t version : {kFormatVersionV1, kFormatVersion}) {
        for (bool rle : {true, false}) {
            const auto bytes = valid_trace_bytes(rle, version);
            Trace out;
            std::string error;
            ASSERT_TRUE(Trace::decode(bytes.data(), bytes.size(), out, error)) << error;
            // Every proper prefix must fail cleanly (trailing-byte and
            // truncation checks make the full buffer the only valid parse).
            for (std::size_t len = 0; len < bytes.size(); ++len) {
                error.clear();
                EXPECT_FALSE(Trace::decode(bytes.data(), len, out, error))
                    << "prefix of " << len << " bytes parsed";
                EXPECT_FALSE(error.empty());

                TraceReader reader;
                error.clear();
                EXPECT_FALSE(reader.init(bytes.data(), len, error))
                    << "reader accepted a prefix of " << len << " bytes";
            }
        }
    }
}

TEST(TraceFuzz, RandomSingleByteMutations)
{
    Rng rng(0xF022'0001);
    for (std::uint8_t version : {kFormatVersionV1, kFormatVersion}) {
        for (bool rle : {true, false}) {
            const auto base = valid_trace_bytes(rle, version);
            for (int iter = 0; iter < 1500; ++iter) {
                auto bytes = base;
                const std::size_t at = rng.next_below(bytes.size());
                bytes[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
                expect_no_ub(bytes);
            }
        }
    }
}

TEST(TraceFuzz, VersionConfusionIsDetected)
{
    // Relabeling the version byte must never be silently accepted: the
    // seed trace has multi-line records, so a v2 payload carries per-line
    // class trailers v1 never wrote and vice versa — the stream's decoded
    // byte count can't tile into records of the other version.
    for (bool rle : {true, false}) {
        auto v2_as_v1 = valid_trace_bytes(rle, kFormatVersion);
        v2_as_v1[4] = kFormatVersionV1;
        auto v1_as_v2 = valid_trace_bytes(rle, kFormatVersionV1);
        v1_as_v2[4] = kFormatVersion;

        for (const auto *bytes : {&v2_as_v1, &v1_as_v2}) {
            expect_no_ub(*bytes);
            Trace out;
            std::string error;
            EXPECT_FALSE(Trace::decode(bytes->data(), bytes->size(), out, error));
            EXPECT_FALSE(error.empty());
        }
    }
}

TEST(TraceFuzz, RandomMultiMutationsAndSplices)
{
    Rng rng(0xF022'0002);
    const auto base = valid_trace_bytes(true);
    for (int iter = 0; iter < 2000; ++iter) {
        auto bytes = base;
        const int edits = 1 + static_cast<int>(rng.next_below(8));
        for (int e = 0; e < edits; ++e) {
            switch (rng.next_below(4)) {
              case 0:  // flip
                bytes[rng.next_below(bytes.size())] =
                    static_cast<std::uint8_t>(rng.next_u64());
                break;
              case 1:  // truncate
                bytes.resize(1 + rng.next_below(bytes.size()));
                break;
              case 2:  // append garbage
                for (std::uint64_t n = rng.next_below(16); n > 0; --n)
                    bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
                break;
              default:  // overwrite a run with 0xFF (max varints / controls)
                for (std::size_t at = rng.next_below(bytes.size()), n = 0;
                     at < bytes.size() && n < 12; ++at, ++n)
                    bytes[at] = 0xFF;
                break;
            }
        }
        expect_no_ub(bytes);
    }
}

TEST(TraceFuzz, PureGarbageInputs)
{
    Rng rng(0xF022'0003);
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<std::uint8_t> bytes(rng.next_below(512));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.next_u64());
        expect_no_ub(bytes);
        // Same garbage behind a valid magic+version prefix.
        if (bytes.size() >= 5) {
            bytes[0] = 'M';
            bytes[1] = 'T';
            bytes[2] = 'R';
            bytes[3] = 'C';
            bytes[4] = kFormatVersion;
            expect_no_ub(bytes);
        }
    }
}

TEST(TraceFuzz, CraftedImpossibleCounts)
{
    auto craft = [](auto mutate) {
        std::vector<std::uint8_t> bytes = {'M', 'T', 'R', 'C', kFormatVersion, 0x00};
        mutate(bytes);
        Trace out;
        std::string error;
        EXPECT_FALSE(Trace::decode(bytes.data(), bytes.size(), out, error));
        EXPECT_FALSE(error.empty());
        TraceReader reader;
        std::string rerror;
        EXPECT_FALSE(reader.init(bytes.data(), bytes.size(), rerror));
        EXPECT_FALSE(rerror.empty());
    };

    // Unknown flag bits.
    craft([](std::vector<std::uint8_t> &b) {
        b[5] = 0xF0;
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 0);
    });
    // Zero SMs.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 0);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 0);
    });
    // Absurd SM count (2^40).
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1ULL << 40);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 0);
    });
    // Wrong line size.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, 64);
        put_varint(b, 0);
        put_varint(b, 0);
    });
    // Name length far past the buffer.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 1ULL << 30);
    });
    // More streams than (sms x warps) slots.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 2);
    });
    // Maximal slots (65536 x 65536) and 2^32-1 streams but no directory:
    // a 20-byte file must not make the reader reserve 2^32 entries.
    auto huge_stream_count = [](std::vector<std::uint8_t> &b) {
        put_varint(b, kMaxTraceSms);
        put_varint(b, kMaxTraceWarpsPerSm);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 0xFFFF'FFFFULL);
    };
    craft(huge_stream_count);
    {
        std::vector<std::uint8_t> bytes = {'M', 'T', 'R', 'C', kFormatVersion, 0x00};
        huge_stream_count(bytes);
        ASSERT_EQ(bytes.size(), 20u);
        TraceReader reader;
        std::string error;
        EXPECT_FALSE(reader.init(bytes.data(), bytes.size(), error));
        EXPECT_EQ(error, "impossible stream count");
    }

    // Stream record count impossible for its payload size.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 1);      // one stream
        put_varint(b, 0);      // sm
        put_varint(b, 0);      // warp
        put_varint(b, 1ULL << 50);  // records
        put_varint(b, 4);      // decoded bytes
        put_varint(b, 4);      // stored bytes
        b.insert(b.end(), {1, 2, 3, 4});
    });
    // RLE decoded size beyond the possible expansion of its payload.
    craft([](std::vector<std::uint8_t> &b) {
        b[5] = kFlagRle;
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 1);
        put_varint(b, 0);
        put_varint(b, 0);
        put_varint(b, 1);
        put_varint(b, 1ULL << 20);  // decoded
        put_varint(b, 2);           // stored: 2 bytes can expand to <= 130
        b.insert(b.end(), {0xFF, 0x00});
    });
    // Duplicate (sm, warp) stream.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 2);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 2);
        for (int s = 0; s < 2; ++s) {
            put_varint(b, 0);  // sm
            put_varint(b, 0);  // warp (same twice)
            put_varint(b, 0);
            put_varint(b, 0);
            put_varint(b, 0);
        }
    });
    // Record with num_lines > kMaxLinesPerInst (packed nibble 0xF).
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 1);
        put_varint(b, 0);
        put_varint(b, 0);
        put_varint(b, 1);   // one record
        put_varint(b, 3);   // decoded bytes
        put_varint(b, 3);   // stored bytes
        b.push_back(0x3C);  // type=0, num_lines=15
        b.push_back(0);     // alu
        b.push_back(0);     // pc delta
    });
    // Record count past the per-file ceiling: must be rejected before
    // TraceStep storage is allocated, even when the RLE payload is
    // genuinely valid (the memory-amplification guard).
    {
        std::vector<std::uint8_t> bytes = {'M', 'T', 'R', 'C', kFormatVersion, kFlagRle};
        put_varint(bytes, 1);
        put_varint(bytes, 1);
        put_varint(bytes, kLineBytes);
        put_varint(bytes, 0);
        put_varint(bytes, 1);  // one stream
        put_varint(bytes, 0);  // sm
        put_varint(bytes, 0);  // warp
        const std::uint64_t records = kMaxTraceRecords + 1;
        const std::uint64_t decoded = records * 3;  // all-zero 3-byte records
        const auto stored = rle_compress(std::vector<std::uint8_t>(decoded, 0));
        put_varint(bytes, records);
        put_varint(bytes, decoded);
        put_varint(bytes, stored.size());
        bytes.insert(bytes.end(), stored.begin(), stored.end());

        Trace out;
        std::string error;
        EXPECT_FALSE(Trace::decode(bytes.data(), bytes.size(), out, error));
        EXPECT_NE(error.find("ceiling"), std::string::npos) << error;
    }

    // Trailing bytes after the last stream.
    craft([](std::vector<std::uint8_t> &b) {
        put_varint(b, 1);
        put_varint(b, 1);
        put_varint(b, kLineBytes);
        put_varint(b, 0);
        put_varint(b, 0);
        b.push_back(0xAA);
    });
}

TEST(TraceFuzz, ConverterMutatedText)
{
    // The text-trace converter is fed hostile input by design (real GPU
    // dumps, hand-edited files). Mutations of a valid sample must either
    // fail with a line-numbered error or succeed with a verifiable .mtrc
    // — and the caps on tokens/addresses keep every iteration's work
    // bounded no matter what the mutation produced.
    const std::string base =
        "kernel fuzz\n"
        "# a comment line\n"
        "cta 0,0,0 warp 0 PC 0x100 LDG.E addrs 0x1000 0x1080 0x0\n"
        "cta 0,0,0 warp 1 STG.E addrs 0x2000 0x2004 0x2100\n"
        "warp 2 RED.ADD addrs 0x3000 0x3004\n"
        "cta 0,0,0 warp 0 LDS addrs 0x0\n"
        "cta 1,0,0 warp 0 PC 0x140 LDG.E addrs 0x4000\n";
    const std::string out_path = testing::TempDir() + "/fuzz_convert.mtrc";

    Rng rng(0xF022'0004);
    int accepted = 0;
    for (int iter = 0; iter < 500; ++iter) {
        std::string text = base;
        const int edits = 1 + static_cast<int>(rng.next_below(6));
        for (int e = 0; e < edits; ++e) {
            switch (rng.next_below(4)) {
              case 0:  // overwrite one byte (any value, including NUL/newline)
                text[rng.next_below(text.size())] =
                    static_cast<char>(rng.next_u64());
                break;
              case 1:  // truncate
                text.resize(1 + rng.next_below(text.size()));
                break;
              case 2: {  // duplicate a slice (token soup, repeated lines)
                const std::size_t from = rng.next_below(text.size());
                const std::size_t len =
                    rng.next_below(text.size() - from) + 1;
                text += text.substr(from, len);
                break;
              }
              default:  // splice a hostile token
                text += " 0xFFFFFFFFFFFFFFFFF";
                break;
            }
        }
        trace::ConvertOptions options;
        trace::ConvertStats stats;
        std::string error;
        const bool ok = convert_text_trace(text.data(), text.size(), out_path,
                                           options, stats, error);
        if (ok) {
            ++accepted;
            // Whatever survived conversion must be a canonical, fully
            // walkable v2 trace.
            TraceReader reader;
            std::string rerror;
            ASSERT_TRUE(reader.open(out_path, rerror)) << rerror;
            EXPECT_EQ(reader.version(), kFormatVersion);
            TraceStats st;
            EXPECT_TRUE(reader.stats(st, rerror)) << rerror;
            EXPECT_EQ(st.records, stats.records);
        } else {
            EXPECT_FALSE(error.empty());
        }
    }
    // The corpus is mutation-heavy, but pure truncations and slice
    // duplications often stay grammatical: both verdicts must occur.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, 500);
}
