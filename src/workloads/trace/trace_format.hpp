#ifndef MORPHEUS_WORKLOADS_TRACE_TRACE_FORMAT_HPP_
#define MORPHEUS_WORKLOADS_TRACE_TRACE_FORMAT_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/workload.hpp"
#include "sim/types.hpp"
#include "workloads/block_data.hpp"

namespace morpheus::trace {

/**
 * The `.mtrc` compressed address-trace format (spec: docs/TRACE_FORMAT.md).
 *
 * A trace is a header plus one record stream per (sm, warp). Each record
 * is one warp scheduling step — ALU batch + one coalesced memory
 * instruction — encoded as a packed flag byte, varints, and zigzag
 * varint address deltas (addresses are line-granular and delta-encoded
 * against the warp's previous access, so streaming patterns shrink to
 * one or two bytes per line). Streams are optionally compressed with a
 * self-contained byte-level RLE (no zlib dependency).
 *
 * Two on-disk versions exist. v1 carries one BDI footprint class per
 * record (its first line's); v2 carries a class per *line* (packed
 * 2-bit trailers), fixing profile-less replay fidelity for multi-line
 * steps. The reader accepts both; encoders emit TraceHeader::version.
 *
 * One parser (TraceReader, trace_reader.hpp) and one container writer
 * (put_header/put_stream_section below) exist. The parser is hardened
 * against corrupt input: every length is validated against the
 * remaining buffer before any allocation, so a truncated or bit-flipped
 * file produces an error string, never UB (tests/test_trace_fuzz.cpp
 * runs it under ASan+UBSan).
 */

/** File magic ("MTRC") and the format versions. */
inline constexpr std::uint8_t kMagic[4] = {'M', 'T', 'R', 'C'};
inline constexpr std::uint8_t kFormatVersionV1 = 1;  ///< per-record class
inline constexpr std::uint8_t kFormatVersion = 2;    ///< per-line classes

/** Header flag bits. */
inline constexpr std::uint8_t kFlagHasProfile = 0x01;  ///< BlockDataProfile present
inline constexpr std::uint8_t kFlagRle = 0x02;         ///< stream payloads RLE-compressed

/** @name Hard format ceilings
 * Shared by the writers, the reader, and the tools: values beyond
 * these are rejected as "impossible" before any allocation, so a small
 * crafted file cannot demand gigabytes of TraceStep storage (RLE plus
 * 3-byte minimum records would otherwise amplify input size ~2000x).
 * kMaxTraceRecords bounds only *materializing* decodes (Trace::decode
 * holds every step in memory); TraceReader replays arbitrarily large
 * files without it — traces past the ceiling are streamed or
 * downsampled, never fully decoded.
 */
///@{
inline constexpr std::uint64_t kMaxTraceSms = 1u << 16;
inline constexpr std::uint64_t kMaxTraceWarpsPerSm = 1u << 16;
inline constexpr std::uint64_t kMaxTraceRecords = 1u << 23;  ///< per materialized decode
inline constexpr std::uint64_t kMaxNameBytes = 4096;
/** RLE expands at most 65x (a 2-byte run packet yields up to 130 bytes). */
inline constexpr std::uint64_t kMaxRleExpansion = 65;
/** Minimum encoded record: packed byte + alu varint + pc varint. */
inline constexpr std::uint64_t kMinRecordBytes = 3;
///@}

/** BDI footprint class of a recorded line (matches CompLevel). */
inline constexpr std::uint8_t kClassHigh = 0;          ///< compresses 4x (<= 32 B)
inline constexpr std::uint8_t kClassLow = 1;           ///< compresses 2x (<= 64 B)
inline constexpr std::uint8_t kClassUncompressed = 2;
inline constexpr std::uint8_t kClassUnknown = 3;       ///< pure-ALU step / not recorded

/**
 * One recorded warp scheduling step. Mirrors WarpStep plus the
 * trace-only fields: the program counter and the per-line value
 * footprint classes (what each accessed line's contents BDI-compress
 * to), which let a replay without the generating workload synthesize
 * class-faithful data. v1 files populate cls[0] only; entries beyond
 * num_lines stay kClassUnknown.
 */
struct TraceStep
{
    static_assert(WarpStep::kMaxLinesPerInst == 8,
                  "cls initializer below assumes 8 lines per instruction");

    std::uint64_t pc = 0;
    std::uint32_t alu_instrs = 0;
    std::uint32_t num_lines = 0;
    LineAddr lines[WarpStep::kMaxLinesPerInst] = {};
    AccessType type = AccessType::kRead;
    std::uint8_t cls[WarpStep::kMaxLinesPerInst] = {
        kClassUnknown, kClassUnknown, kClassUnknown, kClassUnknown,
        kClassUnknown, kClassUnknown, kClassUnknown, kClassUnknown};
};

bool operator==(const TraceStep &a, const TraceStep &b);
inline bool operator!=(const TraceStep &a, const TraceStep &b) { return !(a == b); }

/** The ordered step sequence of one (sm, warp). May be empty: a recorded
 *  warp that retired without issuing still occupies an occupancy slot. */
struct TraceStream
{
    std::uint32_t sm = 0;
    std::uint32_t warp = 0;
    std::vector<TraceStep> steps;
};

/** Aggregate statistics of a trace (the `morpheus_trace stat` view). */
struct TraceStats
{
    std::uint64_t records = 0;
    std::uint64_t mem_records = 0;      ///< records with num_lines > 0
    std::uint64_t lines = 0;            ///< line accesses across all records
    std::uint64_t reads = 0;            ///< per mem record
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t alu_instrs = 0;
    std::uint64_t class_counts[4] = {}; ///< per footprint class, line accesses
    std::uint64_t unique_lines = 0;
    std::uint64_t footprint_bytes = 0;  ///< unique_lines * kLineBytes
    /** Streams with zero records (warps that retired without issuing). */
    std::uint64_t empty_streams = 0;
    /** Lines recorded with two or more *disagreeing* known classes
     *  (replay resolves these highest-compression-wins; see
     *  TraceWorkload). */
    std::uint64_t class_collisions = 0;
};

/** The `.mtrc` header: every field before the stream directory. */
struct TraceHeader
{
    std::string name;                       ///< originating workload name
    std::uint8_t version = kFormatVersion;  ///< on-disk version to encode
    std::uint32_t num_sms = 0;              ///< compute SMs at record time
    std::uint32_t warps_per_sm = 0;         ///< occupancy bound at record time
    bool rle = true;                        ///< compress stream payloads on encode

    /** When recorded from a synthetic workload, its data profile travels
     *  with the trace so replayed block contents are byte-identical. */
    bool has_profile = false;
    BlockDataProfile profile{};
};

/**
 * An in-memory `.mtrc` trace: what record_trace() produces and what
 * downsample_trace() edits. encode()/decode() are exact inverses (the
 * determinism tests rely on byte-identical re-encoding).
 *
 * decode() is a drain of TraceReader cursors (trace_reader.hpp), the one
 * `.mtrc` parser; replay always goes through a TraceReader, which never
 * holds more than one record per stream. Materializing costs
 * sizeof(TraceStep) per record, hence the kMaxTraceRecords ceiling.
 */
class Trace : public TraceHeader
{
  public:
    std::vector<TraceStream> streams;

    std::uint64_t total_records() const;

    /** Serializes to the `.mtrc` byte layout of `version` (v1 drops the
     *  classes of lines beyond each record's first). */
    std::vector<std::uint8_t> encode() const;

    /** Parses an encoded trace (either version) with TraceReader's full
     *  validation, then materializes every stream. @return false and
     *  fills @p error on any malformed input, or when the file holds more
     *  than kMaxTraceRecords records. */
    static bool decode(const std::uint8_t *data, std::size_t size, Trace &out,
                       std::string &error);

    /** File convenience wrappers around encode()/decode(). */
    bool save_file(const std::string &path, std::string &error) const;
    static bool load_file(const std::string &path, Trace &out, std::string &error);
};

/**
 * Truncates every stream to the leading ceil(keep_frac * steps) records
 * (clamped to [0, 1]). Keeping prefixes — rather than sampling — preserves
 * each warp's delta chain and first-touch pattern, so the downsampled
 * trace still replays as a coherent (shorter) kernel. keep_frac == 0
 * keeps every stream as an empty occupancy slot, which replays as a
 * well-defined zero-work kernel (warps retire without issuing).
 */
void downsample_trace(Trace &trace, double keep_frac);

/** @name Codec primitives (exposed for the format tests)
 * LEB128 varints, zigzag signed mapping, and the byte-level RLE used for
 * stream payloads. RLE packets: a control byte c < 0x80 announces c+1
 * literal bytes; c >= 0x80 announces the next byte repeated (c-0x80)+3
 * times (runs of 3..130; longer runs split).
 */
///@{
void put_varint(std::vector<std::uint8_t> &out, std::uint64_t v);
bool get_varint(const std::uint8_t *&p, const std::uint8_t *end, std::uint64_t &out);
std::uint64_t zigzag_encode(std::int64_t v);
std::int64_t zigzag_decode(std::uint64_t v);
std::vector<std::uint8_t> rle_compress(const std::vector<std::uint8_t> &in);
///@}

/** @name Container writer
 * The one writer of the `.mtrc` header and stream sections, shared by
 * Trace::encode and TraceFileWriter.
 */
///@{

/** Whether @p header and @p stream_count are inside the format ceilings
 *  the reader enforces (known version, SM/warp/name bounds, at most
 *  one stream per (sm, warp) slot). */
bool header_within_ceilings(const TraceHeader &header, std::uint64_t stream_count);

/** Appends the header (magic through the stream count) to @p out. */
void put_header(std::vector<std::uint8_t> &out, const TraceHeader &header,
                std::uint64_t stream_count);

/** Appends one stream section: its directory entry, then @p payload,
 *  RLE-compressed when @p rle. */
void put_stream_section(std::vector<std::uint8_t> &out, std::uint32_t sm, std::uint32_t warp,
                        std::uint64_t record_count, const std::vector<std::uint8_t> &payload,
                        bool rle);
///@}

/** @name Record codec
 * One implementation of the per-record wire layout, shared by the
 * reader's cursors (TraceReader, which Trace::decode drains), the
 * in-memory encoder (Trace::encode), and the streaming writer
 * (TraceFileWriter) — so every producer/consumer pair is byte-identical
 * by construction. Decoding is templated over a pull-based byte source
 * (`bool pull(std::uint8_t &)`), which lets the reader decode RLE
 * payloads incrementally without ever materializing a stream.
 */
///@{

/** Pull source over a contiguous byte range. */
struct ByteRange
{
    const std::uint8_t *p = nullptr;
    const std::uint8_t *end = nullptr;

    bool
    pull(std::uint8_t &b)
    {
        if (p == end)
            return false;
        b = *p++;
        return true;
    }
};

/** get_varint over a pull source (same LEB128 validation rules). */
template <class Source>
bool
pull_varint(Source &src, std::uint64_t &out)
{
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        std::uint8_t byte;
        if (!src.pull(byte))
            return false;
        // The 10th byte may only carry the top bit of a 64-bit value.
        if (shift == 63 && (byte & ~1u))
            return false;
        out |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false;
}

/**
 * Decodes one record of @p version from @p src, updating the stream's
 * delta state (@p prev_pc, @p prev_line). @return false with @p error
 * set on malformed input; bounded work, no allocation.
 */
template <class Source>
bool
decode_record(Source &src, std::uint8_t version, std::uint64_t &prev_pc, LineAddr &prev_line,
              TraceStep &step, std::string &error)
{
    std::uint8_t packed;
    if (!src.pull(packed)) {
        error = "record stream shorter than record count";
        return false;
    }
    step = TraceStep{};
    const std::uint8_t type = packed & 3;
    step.num_lines = (packed >> 2) & 0xF;
    step.cls[0] = packed >> 6;
    if (type > static_cast<std::uint8_t>(AccessType::kAtomic)) {
        error = "invalid access type";
        return false;
    }
    step.type = static_cast<AccessType>(type);
    if (step.num_lines > WarpStep::kMaxLinesPerInst) {
        error = "record exceeds max lines per instruction";
        return false;
    }

    std::uint64_t alu = 0;
    std::uint64_t pc_delta = 0;
    if (!pull_varint(src, alu) || !pull_varint(src, pc_delta)) {
        error = "corrupt record varint";
        return false;
    }
    if (alu > UINT32_MAX) {
        error = "impossible ALU batch size";
        return false;
    }
    step.alu_instrs = static_cast<std::uint32_t>(alu);
    step.pc = prev_pc + static_cast<std::uint64_t>(zigzag_decode(pc_delta));
    prev_pc = step.pc;

    for (std::uint32_t i = 0; i < step.num_lines; ++i) {
        std::uint64_t delta = 0;
        if (!pull_varint(src, delta)) {
            error = "corrupt line-delta varint";
            return false;
        }
        const LineAddr base = i == 0 ? prev_line : step.lines[i - 1];
        step.lines[i] = base + static_cast<std::uint64_t>(zigzag_decode(delta));
    }
    if (step.num_lines > 0)
        prev_line = step.lines[step.num_lines - 1];

    // v2 trailer: 2-bit classes of lines[1..], four per byte, unused
    // high bits zero (enforced: canonical encoding has one byte form).
    if (version >= 2 && step.num_lines > 1) {
        const std::uint32_t extra = step.num_lines - 1;       // 1..7
        const std::uint32_t trailer_bytes = (extra + 3) / 4;  // 1..2
        std::uint8_t buf[2] = {0, 0};
        for (std::uint32_t b = 0; b < trailer_bytes && b < 2; ++b) {
            if (!src.pull(buf[b])) {
                error = "truncated per-line class trailer";
                return false;
            }
        }
        const std::uint32_t pad_bits = trailer_bytes * 8 - extra * 2;
        if (pad_bits > 0 && (buf[(trailer_bytes - 1) & 1] >> (8 - pad_bits)) != 0) {
            error = "nonzero padding in per-line class trailer";
            return false;
        }
        for (std::uint32_t i = 1; i < WarpStep::kMaxLinesPerInst && i < step.num_lines;
             ++i) {
            const std::uint32_t bit = 2 * (i - 1);
            step.cls[i] = (buf[(bit / 8) & 1] >> (bit % 8)) & 3;
        }
    }
    return true;
}

/**
 * Incremental per-stream record encoder: carries the delta-chain state
 * so records can be appended one at a time (the streaming writer's and
 * converter's unit of work). Trace::encode uses it per stream, which is
 * what makes the streaming and in-memory writers byte-identical.
 */
class StreamEncoder
{
  public:
    explicit StreamEncoder(std::uint8_t version) : version_(version) {}

    /** Appends @p step's encoding to @p payload. */
    void add(const TraceStep &step, std::vector<std::uint8_t> &payload);

  private:
    std::uint8_t version_;
    std::uint64_t prev_pc_ = 0;
    LineAddr prev_line_ = 0;
};
///@}

} // namespace morpheus::trace

#endif // MORPHEUS_WORKLOADS_TRACE_TRACE_FORMAT_HPP_
