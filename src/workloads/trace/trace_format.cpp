#include "workloads/trace/trace_format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "workloads/trace/trace_reader.hpp"

namespace morpheus::trace {
namespace {

void
put_u64_le(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
double_bits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace

bool
operator==(const TraceStep &a, const TraceStep &b)
{
    if (a.pc != b.pc || a.alu_instrs != b.alu_instrs || a.num_lines != b.num_lines ||
        a.type != b.type)
        return false;
    for (std::uint32_t i = 0; i < a.num_lines; ++i) {
        if (a.lines[i] != b.lines[i] || a.cls[i] != b.cls[i])
            return false;
    }
    // A pure-ALU record still carries cls[0] on the wire.
    if (a.num_lines == 0 && a.cls[0] != b.cls[0])
        return false;
    return true;
}

void
put_varint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
get_varint(const std::uint8_t *&p, const std::uint8_t *end, std::uint64_t &out)
{
    ByteRange src{p, end};
    const bool ok = pull_varint(src, out);
    p = src.p;
    return ok;
}

std::uint64_t
zigzag_encode(std::int64_t v)
{
    const std::uint64_t u = static_cast<std::uint64_t>(v);
    return (u << 1) ^ (0 - (u >> 63));
}

std::int64_t
zigzag_decode(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (0 - (v & 1)));
}

std::vector<std::uint8_t>
rle_compress(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    std::size_t i = 0;
    std::size_t literal_begin = 0;

    auto flush_literals = [&](std::size_t until) {
        std::size_t n = until - literal_begin;
        while (n > 0) {
            const std::size_t chunk = std::min<std::size_t>(n, 128);
            out.push_back(static_cast<std::uint8_t>(chunk - 1));
            out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(literal_begin),
                       in.begin() + static_cast<std::ptrdiff_t>(literal_begin + chunk));
            literal_begin += chunk;
            n -= chunk;
        }
    };

    while (i < in.size()) {
        std::size_t run = 1;
        while (i + run < in.size() && in[i + run] == in[i] && run < 130)
            ++run;
        if (run >= 3) {
            flush_literals(i);
            out.push_back(static_cast<std::uint8_t>(0x80 + (run - 3)));
            out.push_back(in[i]);
            i += run;
            literal_begin = i;
        } else {
            i += run;
        }
    }
    flush_literals(in.size());
    return out;
}

bool
header_within_ceilings(const TraceHeader &header, std::uint64_t stream_count)
{
    return header.version >= kFormatVersionV1 && header.version <= kFormatVersion &&
           header.num_sms > 0 && header.num_sms <= kMaxTraceSms && header.warps_per_sm > 0 &&
           header.warps_per_sm <= kMaxTraceWarpsPerSm && header.name.size() <= kMaxNameBytes &&
           stream_count <= static_cast<std::uint64_t>(header.num_sms) * header.warps_per_sm;
}

void
put_header(std::vector<std::uint8_t> &out, const TraceHeader &header,
           std::uint64_t stream_count)
{
    out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
    out.push_back(header.version);
    std::uint8_t flags = 0;
    if (header.has_profile)
        flags |= kFlagHasProfile;
    if (header.rle)
        flags |= kFlagRle;
    out.push_back(flags);
    put_varint(out, header.num_sms);
    put_varint(out, header.warps_per_sm);
    put_varint(out, kLineBytes);
    put_varint(out, header.name.size());
    out.insert(out.end(), header.name.begin(), header.name.end());
    if (header.has_profile) {
        put_u64_le(out, double_bits(header.profile.high_frac));
        put_u64_le(out, double_bits(header.profile.low_frac));
        put_u64_le(out, header.profile.seed);
    }
    put_varint(out, stream_count);
}

void
put_stream_section(std::vector<std::uint8_t> &out, std::uint32_t sm, std::uint32_t warp,
                   std::uint64_t record_count, const std::vector<std::uint8_t> &payload,
                   bool rle)
{
    put_varint(out, sm);
    put_varint(out, warp);
    put_varint(out, record_count);
    put_varint(out, payload.size());
    if (rle) {
        const std::vector<std::uint8_t> packed = rle_compress(payload);
        put_varint(out, packed.size());
        out.insert(out.end(), packed.begin(), packed.end());
    } else {
        put_varint(out, payload.size());
        out.insert(out.end(), payload.begin(), payload.end());
    }
}

void
StreamEncoder::add(const TraceStep &step, std::vector<std::uint8_t> &payload)
{
    const std::uint8_t packed =
        static_cast<std::uint8_t>(static_cast<std::uint8_t>(step.type) |
                                  ((step.num_lines & 0xF) << 2) | ((step.cls[0] & 3) << 6));
    payload.push_back(packed);
    put_varint(payload, step.alu_instrs);
    put_varint(payload, zigzag_encode(static_cast<std::int64_t>(step.pc - prev_pc_)));
    prev_pc_ = step.pc;
    for (std::uint32_t i = 0; i < step.num_lines; ++i) {
        const LineAddr base = i == 0 ? prev_line_ : step.lines[i - 1];
        put_varint(payload, zigzag_encode(static_cast<std::int64_t>(step.lines[i] - base)));
    }
    if (step.num_lines > 0)
        prev_line_ = step.lines[step.num_lines - 1];

    // v2 trailer: 2-bit classes of lines[1..], four per byte, zero padding.
    if (version_ >= 2 && step.num_lines > 1) {
        const std::uint32_t extra = step.num_lines - 1;
        for (std::uint32_t b = 0; b * 4 < extra; ++b) {
            std::uint8_t byte = 0;
            const std::uint32_t in_byte = std::min<std::uint32_t>(extra - b * 4, 4);
            for (std::uint32_t k = 0; k < in_byte; ++k)
                byte |= static_cast<std::uint8_t>((step.cls[1 + b * 4 + k] & 3) << (2 * k));
            payload.push_back(byte);
        }
    }
}

std::uint64_t
Trace::total_records() const
{
    std::uint64_t n = 0;
    for (const auto &s : streams)
        n += s.steps.size();
    return n;
}

std::vector<std::uint8_t>
Trace::encode() const
{
    std::vector<std::uint8_t> out;
    out.reserve(64 + 4 * total_records());
    put_header(out, *this, streams.size());
    std::vector<std::uint8_t> payload;
    for (const auto &stream : streams) {
        payload.clear();
        StreamEncoder enc(version);
        for (const auto &step : stream.steps)
            enc.add(step, payload);
        put_stream_section(out, stream.sm, stream.warp, stream.steps.size(), payload, rle);
    }
    return out;
}

bool
Trace::decode(const std::uint8_t *data, std::size_t size, Trace &out, std::string &error)
{
    out = Trace{};
    TraceReader reader;
    if (!reader.init(data, size, error))
        return false;
    // Degenerate 3-byte records under maximal RLE would otherwise let a
    // small crafted file demand ~2000x its size in TraceStep storage.
    if (reader.total_records() > kMaxTraceRecords) {
        error = "impossible record count (exceeds per-file ceiling)";
        return false;
    }
    static_cast<TraceHeader &>(out) = reader.header();
    out.streams.resize(reader.stream_count());
    for (std::size_t i = 0; i < reader.stream_count(); ++i) {
        TraceStream &stream = out.streams[i];
        stream.sm = reader.stream(i).sm;
        stream.warp = reader.stream(i).warp;
        stream.steps.resize(reader.stream(i).record_count);
        // A validated reader's cursors never fail.
        TraceReader::Cursor c = reader.cursor(i);
        for (TraceStep &step : stream.steps)
            c.next(step);
    }
    return true;
}

bool
Trace::save_file(const std::string &path, std::string &error) const
{
    // Refuse to write files the reader would reject.
    if (!header_within_ceilings(*this, streams.size()) || total_records() > kMaxTraceRecords) {
        error = "trace exceeds .mtrc format ceilings (version/SMs/warps/name/records); "
                "downsample before saving";
        return false;
    }
    const std::vector<std::uint8_t> bytes = encode();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    const std::size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool ok = std::fclose(f) == 0 && written == bytes.size();
    if (!ok)
        error = "short write to '" + path + "'";
    return ok;
}

bool
Trace::load_file(const std::string &path, Trace &out, std::string &error)
{
    MappedFile file;
    return file.open(path, error) && decode(file.data(), file.size(), out, error);
}

void
downsample_trace(Trace &trace, double keep_frac)
{
    // NaN compares false everywhere (std::clamp would return it, and the
    // float->integer cast below would be UB); treat it as "keep nothing".
    if (!(keep_frac >= 0.0))
        keep_frac = 0.0;
    keep_frac = std::clamp(keep_frac, 0.0, 1.0);
    for (auto &stream : trace.streams) {
        const auto keep = static_cast<std::size_t>(
            std::ceil(static_cast<double>(stream.steps.size()) * keep_frac));
        if (keep < stream.steps.size())
            stream.steps.resize(keep);
    }
}

} // namespace morpheus::trace
