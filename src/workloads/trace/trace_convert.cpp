#include "workloads/trace/trace_convert.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <tuple>
#include <vector>

#include "gpu/workload.hpp"
#include "workloads/trace/trace_format.hpp"
#include "workloads/trace/trace_writer.hpp"

namespace morpheus::trace {
namespace {

/** Hard caps keeping a hostile input's per-line work and allocation
 *  bounded (a warp has 32 lanes; real dumps never exceed these). */
constexpr std::size_t kMaxTokensPerLine = 96;
constexpr std::size_t kMaxAddressesPerLine = 64;

/** One (cta, warp) stream being accumulated: records encode straight
 *  into `payload`, so memory per stream is bytes-per-record, not
 *  sizeof(TraceStep). */
struct StreamBuf
{
    StreamEncoder enc{kFormatVersion};
    std::vector<std::uint8_t> payload;
    std::uint64_t records = 0;
    std::uint64_t pc_cursor = 0;
    std::uint64_t pending_alu = 0;  ///< local/shared ops awaiting a record
};

using StreamKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t>;

bool
fail_at(std::string &error, std::uint64_t line_no, const std::string &what)
{
    error = "line " + std::to_string(line_no) + ": " + what;
    return false;
}

bool
parse_dec_u32(std::string_view t, std::uint32_t &out)
{
    if (t.empty() || t.size() > 10)
        return false;
    std::uint64_t v = 0;
    for (char c : t) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (v > 0xFFFFFFFFull)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
parse_hex_u64(std::string_view t, std::uint64_t &out)
{
    if (t.size() >= 2 && (t[1] == 'x' || t[1] == 'X') && t[0] == '0')
        t.remove_prefix(2);
    if (t.empty() || t.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (char c : t) {
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A') + 10;
        else
            return false;
        v = (v << 4) | digit;
    }
    out = v;
    return true;
}

/** "X,Y,Z" -> three u32s. */
bool
parse_cta(std::string_view t, std::uint32_t out[3])
{
    for (int i = 0; i < 3; ++i) {
        const std::size_t comma = t.find(',');
        const std::string_view part = i < 2 ? t.substr(0, comma) : t;
        if ((i < 2) != (comma != std::string_view::npos))
            return false;
        if (!parse_dec_u32(part, out[i]))
            return false;
        if (i < 2)
            t.remove_prefix(comma + 1);
    }
    return true;
}

enum class OpKind { kRead, kWrite, kAtomic, kLocal };

/**
 * Classifies a SASS-like opcode by prefix. Shared/local-space ops move
 * no global-memory data; everything else must be a recognizable
 * load/store/atomic — unknown opcodes are a hard error at the call
 * site (strict grammar).
 */
bool
classify_opcode(std::string_view op, OpKind &kind)
{
    // The space-qualified forms first: LDS/LDL (shared/local loads),
    // STS/STL, and LDSM (shared matrix load) would otherwise match the
    // LD*/ST* global prefixes.
    auto starts = [op](std::string_view prefix) {
        return op.size() >= prefix.size() && op.substr(0, prefix.size()) == prefix;
    };
    if (starts("LDS") || starts("LDL") || starts("STS") || starts("STL") ||
        starts("LDSM")) {
        kind = OpKind::kLocal;
        return true;
    }
    if (starts("ATOM") || starts("RED")) {
        kind = OpKind::kAtomic;
        return true;
    }
    if (starts("LD")) {
        kind = OpKind::kRead;
        return true;
    }
    if (starts("ST")) {
        kind = OpKind::kWrite;
        return true;
    }
    return false;
}

bool
is_opcode_token(std::string_view t)
{
    if (t.empty() || !((t[0] >= 'A' && t[0] <= 'Z')))
        return false;
    for (char c : t) {
        const bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '.' ||
                        c == '_';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

bool
convert_text_trace(const char *data, std::size_t size, const std::string &out_path,
                   const ConvertOptions &options, ConvertStats &stats, std::string &error)
{
    stats = ConvertStats{};
    if (options.num_sms == 0 || options.num_sms > kMaxTraceSms) {
        error = "conversion SM count out of range";
        return false;
    }

    std::map<StreamKey, StreamBuf> streams;
    std::string kernel_name;
    std::string_view rest(data, size);
    std::uint64_t line_no = 0;
    std::vector<std::string_view> tokens;
    tokens.reserve(kMaxTokensPerLine);
    LineAddr lines[WarpStep::kMaxLinesPerInst * 8];  // pre-chunk dedupe space

    while (!rest.empty()) {
        ++line_no;
        const std::size_t nl = rest.find('\n');
        std::string_view line = rest.substr(0, nl);
        rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        ++stats.text_lines;

        // Tokenize on spaces/tabs, bounded.
        tokens.clear();
        std::size_t pos = 0;
        while (pos < line.size()) {
            while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t'))
                ++pos;
            if (pos == line.size())
                break;
            std::size_t end = pos;
            while (end < line.size() && line[end] != ' ' && line[end] != '\t')
                ++end;
            if (tokens.size() == kMaxTokensPerLine)
                return fail_at(error, line_no, "too many tokens on one line");
            tokens.push_back(line.substr(pos, end - pos));
            pos = end;
        }
        if (tokens.empty() || tokens[0][0] == '#')
            continue;

        if (tokens[0] == "kernel") {
            if (tokens.size() != 2)
                return fail_at(error, line_no, "kernel line expects exactly one name");
            kernel_name.assign(tokens[1]);
            if (kernel_name.size() > kMaxNameBytes)
                return fail_at(error, line_no, "kernel name too long");
            continue;
        }

        // Instruction line.
        std::uint32_t cta[3] = {0, 0, 0};
        std::uint32_t warp = 0;
        bool have_warp = false;
        std::uint64_t pc = 0;
        bool have_pc = false;
        std::string_view opcode;
        std::size_t addr_begin = tokens.size();

        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const std::string_view t = tokens[i];
            if (t == "cta" || t == "block") {
                if (i + 1 >= tokens.size() || !parse_cta(tokens[++i], cta))
                    return fail_at(error, line_no, "cta expects X,Y,Z");
            } else if (t == "warp") {
                if (i + 1 >= tokens.size() || !parse_dec_u32(tokens[++i], warp))
                    return fail_at(error, line_no, "warp expects a decimal index");
                have_warp = true;
            } else if (t == "PC" || t == "pc") {
                if (i + 1 >= tokens.size() || !parse_hex_u64(tokens[++i], pc))
                    return fail_at(error, line_no, "PC expects a hex value");
                have_pc = true;
            } else if (t == "addrs" || t == "addrs:" || t == "addresses" ||
                       t == "addresses:") {
                addr_begin = i + 1;
                break;
            } else if (opcode.empty() && is_opcode_token(t)) {
                opcode = t;
            } else {
                return fail_at(error, line_no,
                               "unrecognized token '" + std::string(t) + "'");
            }
        }
        if (!have_warp)
            return fail_at(error, line_no, "instruction line missing 'warp W'");
        if (opcode.empty())
            return fail_at(error, line_no, "instruction line missing an opcode");
        OpKind kind;
        if (!classify_opcode(opcode, kind))
            return fail_at(error, line_no,
                           "unclassifiable opcode '" + std::string(opcode) + "'");
        ++stats.instr_lines;

        StreamBuf &stream = streams[StreamKey(cta[0], cta[1], cta[2], warp)];

        // Collapse lane addresses to deduplicated cache lines (coalescing).
        std::size_t num_lines = 0;
        if (kind != OpKind::kLocal) {
            const std::size_t addr_count =
                addr_begin < tokens.size() ? tokens.size() - addr_begin : 0;
            if (addr_count > kMaxAddressesPerLine)
                return fail_at(error, line_no, "too many lane addresses");
            for (std::size_t a = 0; a < addr_count; ++a) {
                std::uint64_t addr = 0;
                if (!parse_hex_u64(tokens[addr_begin + a], addr))
                    return fail_at(error, line_no,
                                   "bad address '" + std::string(tokens[addr_begin + a]) +
                                       "'");
                if (addr == 0) {
                    ++stats.inactive_lanes;  // NVBit prints inactive lanes as 0x0
                    continue;
                }
                const LineAddr cache_line = addr / kLineBytes;
                bool seen = false;
                for (std::size_t l = 0; l < num_lines && !seen; ++l)
                    seen = lines[l] == cache_line;
                if (!seen)
                    lines[num_lines++] = cache_line;
            }
        }

        if (kind == OpKind::kLocal || num_lines == 0) {
            // Shared/local traffic (or a fully predicated-off access)
            // executes but moves no global-memory lines: one ALU
            // warp-instruction on this stream, attached to its next record.
            if (kind == OpKind::kLocal)
                ++stats.local_ops;
            ++stream.pending_alu;
            if (have_pc)
                stream.pc_cursor = pc;
            continue;
        }

        if (have_pc)
            stream.pc_cursor = pc;
        // Chunk into records of at most kMaxLinesPerInst lines; the first
        // chunk carries the accumulated ALU batch.
        for (std::size_t base = 0; base < num_lines; base += WarpStep::kMaxLinesPerInst) {
            TraceStep step;  // all classes default to kClassUnknown
            step.pc = stream.pc_cursor;
            if (base == 0) {
                if (stream.pending_alu > UINT32_MAX)
                    return fail_at(error, line_no, "ALU batch overflow");
                step.alu_instrs = static_cast<std::uint32_t>(stream.pending_alu);
                stream.pending_alu = 0;
            }
            step.type = kind == OpKind::kRead    ? AccessType::kRead
                        : kind == OpKind::kWrite ? AccessType::kWrite
                                                 : AccessType::kAtomic;
            step.num_lines = static_cast<std::uint32_t>(
                std::min<std::size_t>(num_lines - base, WarpStep::kMaxLinesPerInst));
            for (std::uint32_t l = 0; l < step.num_lines; ++l)
                step.lines[l] = lines[base + l];
            stream.enc.add(step, stream.payload);
            ++stream.records;
            ++stats.records;
            stats.line_accesses += step.num_lines;
        }
        stream.pc_cursor += 8;  // one (coalesced) instruction
    }

    if (streams.empty()) {
        error = "no instruction lines in input";
        return false;
    }

    // Flush trailing ALU batches as pure-ALU records.
    for (auto &[key, stream] : streams) {
        (void)key;
        if (stream.pending_alu == 0)
            continue;
        TraceStep step;
        step.pc = stream.pc_cursor;
        step.alu_instrs = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(stream.pending_alu, UINT32_MAX));
        stream.enc.add(step, stream.payload);
        ++stream.records;
        ++stats.records;
        stream.pending_alu = 0;
    }

    stats.streams = streams.size();
    const std::uint64_t warps_per_sm =
        (streams.size() + options.num_sms - 1) / options.num_sms;
    if (warps_per_sm > kMaxTraceWarpsPerSm) {
        error = "too many (cta, warp) streams for the .mtrc warp ceiling";
        return false;
    }

    TraceHeader header;
    header.name = !options.name.empty() ? options.name
                  : !kernel_name.empty() ? kernel_name
                                         : "converted";
    header.num_sms = options.num_sms;
    header.warps_per_sm = static_cast<std::uint32_t>(std::max<std::uint64_t>(warps_per_sm, 1));
    header.rle = options.rle;
    header.has_profile = false;

    TraceFileWriter writer;
    if (!writer.open(out_path, header, streams.size(), error))
        return false;
    // std::map iterates keys in sorted order: the deal is deterministic
    // however the input interleaved its streams.
    std::uint64_t slot = 0;
    for (const auto &[key, stream] : streams) {
        (void)key;
        const auto sm = static_cast<std::uint32_t>(slot % options.num_sms);
        const auto warp = static_cast<std::uint32_t>(slot / options.num_sms);
        if (!writer.add_encoded_stream(sm, warp, stream.records, stream.payload, error))
            return false;
        ++slot;
    }
    return writer.close(error);
}

bool
convert_text_file(const std::string &in_path, const std::string &out_path,
                  const ConvertOptions &options, ConvertStats &stats, std::string &error)
{
    std::FILE *f = std::fopen(in_path.c_str(), "rb");
    if (!f) {
        error = "cannot open '" + in_path + "'";
        return false;
    }
    std::vector<char> text;
    char buf[64 * 1024];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.insert(text.end(), buf, buf + n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) {
        error = "read error on '" + in_path + "'";
        return false;
    }
    return convert_text_trace(text.data(), text.size(), out_path, options, stats, error);
}

} // namespace morpheus::trace
