#include "workloads/trace/trace_reader.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define MORPHEUS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MORPHEUS_HAVE_MMAP 0
#endif

namespace morpheus::trace {
namespace {

bool
fail(std::string &error, const char *what)
{
    error = what;
    return false;
}

#if !MORPHEUS_HAVE_MMAP
bool
read_whole_file(const std::string &path, std::vector<std::uint8_t> &out, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::uint8_t buf[64 * 1024];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        error = "read error on '" + path + "'";
    return ok;
}
#endif

} // namespace

MappedFile::~MappedFile()
{
    close();
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(other.data_), size_(other.size_), open_(other.open_), mapped_(other.mapped_),
      fallback_(std::move(other.fallback_))
{
    other.data_ = nullptr;
    other.size_ = 0;
    other.open_ = false;
    other.mapped_ = false;
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        close();
        data_ = other.data_;
        size_ = other.size_;
        open_ = other.open_;
        mapped_ = other.mapped_;
        fallback_ = std::move(other.fallback_);
        other.data_ = nullptr;
        other.size_ = 0;
        other.open_ = false;
        other.mapped_ = false;
    }
    return *this;
}

bool
MappedFile::open(const std::string &path, std::string &error)
{
    close();
#if MORPHEUS_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open '" + path + "'";
        return false;
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        error = "cannot stat '" + path + "'";
        return false;
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
        void *addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (addr == MAP_FAILED) {
            ::close(fd);
            size_ = 0;
            error = "cannot mmap '" + path + "'";
            return false;
        }
        data_ = static_cast<const std::uint8_t *>(addr);
        mapped_ = true;
    }
    ::close(fd);  // the mapping keeps the file alive
    open_ = true;
    return true;
#else
    if (!read_whole_file(path, fallback_, error))
        return false;
    data_ = fallback_.data();
    size_ = fallback_.size();
    open_ = true;
    return true;
#endif
}

void
MappedFile::close()
{
#if MORPHEUS_HAVE_MMAP
    if (mapped_ && data_)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
#endif
    data_ = nullptr;
    size_ = 0;
    open_ = false;
    mapped_ = false;
    fallback_.clear();
    fallback_.shrink_to_fit();
}

bool
TraceReader::Cursor::pull(std::uint8_t &b)
{
    if (produced_ == decoded_bytes_)
        return false;
    if (!rle_) {
        if (p_ == end_)
            return false;
        b = *p_++;
        ++produced_;
        return true;
    }
    while (lit_remaining_ == 0 && run_remaining_ == 0) {
        if (p_ == end_)
            return false;
        const std::uint8_t control = *p_++;
        if (control < 0x80) {
            lit_remaining_ = static_cast<std::uint64_t>(control) + 1;
        } else {
            if (p_ == end_)
                return false;
            run_remaining_ = static_cast<std::uint64_t>(control - 0x80) + 3;
            run_byte_ = *p_++;
        }
    }
    if (lit_remaining_ > 0) {
        if (p_ == end_)
            return false;
        b = *p_++;
        --lit_remaining_;
    } else {
        b = run_byte_;
        --run_remaining_;
    }
    ++produced_;
    return true;
}

bool
TraceReader::Cursor::exhausted() const
{
    return produced_ == decoded_bytes_ && p_ == end_ && lit_remaining_ == 0 &&
           run_remaining_ == 0;
}

bool
TraceReader::Cursor::next(TraceStep &out)
{
    if (failed_ || remaining_ == 0)
        return false;
    std::string error;
    if (!decode_record(*this, version_, prev_pc_, prev_line_, out, error)) {
        failed_ = true;
        error_ = "malformed record";
        return false;
    }
    --remaining_;
    if (remaining_ == 0 && !exhausted()) {
        // The final record must land exactly on the payload end; RLE
        // output shorter/longer than declared is non-canonical.
        failed_ = true;
        error_ = "trailing bytes after last record";
        return false;
    }
    return true;
}

bool
TraceReader::open(const std::string &path, std::string &error)
{
    streams_.clear();
    header_ok_ = false;
    if (!file_.open(path, error))
        return false;
    return parse(file_.data(), file_.size(), error, /*validate_records=*/true);
}

bool
TraceReader::init(const std::uint8_t *data, std::size_t size, std::string &error,
                  bool validate_records)
{
    file_.close();
    streams_.clear();
    header_ok_ = false;
    return parse(data, size, error, validate_records);
}

bool
TraceReader::parse(const std::uint8_t *data, std::size_t size, std::string &error,
                   bool validate_records)
{
    const std::uint8_t *p = data;
    const std::uint8_t *end = data + size;

    header_ = TraceHeader{};
    if (size < 6 || std::memcmp(p, kMagic, 4) != 0)
        return fail(error, "not an .mtrc file (bad magic)");
    p += 4;
    header_.version = *p++;
    if (header_.version < kFormatVersionV1 || header_.version > kFormatVersion)
        return fail(error, "unsupported .mtrc version");
    const std::uint8_t flags = *p++;
    if (flags & ~(kFlagHasProfile | kFlagRle))
        return fail(error, "unknown header flags");
    header_.has_profile = flags & kFlagHasProfile;
    header_.rle = flags & kFlagRle;

    std::uint64_t num_sms = 0;
    std::uint64_t warps_per_sm = 0;
    std::uint64_t line_bytes = 0;
    std::uint64_t name_len = 0;
    if (!get_varint(p, end, num_sms) || !get_varint(p, end, warps_per_sm) ||
        !get_varint(p, end, line_bytes) || !get_varint(p, end, name_len))
        return fail(error, "truncated header");
    if (num_sms == 0 || num_sms > kMaxTraceSms)
        return fail(error, "impossible SM count");
    if (warps_per_sm == 0 || warps_per_sm > kMaxTraceWarpsPerSm)
        return fail(error, "impossible warps-per-SM count");
    if (line_bytes != kLineBytes)
        return fail(error, "line size mismatch (the format requires 128-byte lines)");
    if (name_len > kMaxNameBytes || name_len > static_cast<std::uint64_t>(end - p))
        return fail(error, "impossible name length");
    header_.num_sms = static_cast<std::uint32_t>(num_sms);
    header_.warps_per_sm = static_cast<std::uint32_t>(warps_per_sm);
    header_.name.assign(reinterpret_cast<const char *>(p), name_len);
    p += name_len;

    if (header_.has_profile) {
        if (end - p < 24)
            return fail(error, "truncated block profile");
        std::uint64_t bits[3] = {};
        for (auto &word : bits) {
            for (int i = 0; i < 8; ++i)
                word |= static_cast<std::uint64_t>(*p++) << (8 * i);
        }
        BlockDataProfile &profile = header_.profile;
        std::memcpy(&profile.high_frac, &bits[0], 8);
        std::memcpy(&profile.low_frac, &bits[1], 8);
        profile.seed = bits[2];
        if (!std::isfinite(profile.high_frac) || !std::isfinite(profile.low_frac) ||
            profile.high_frac < 0 || profile.low_frac < 0 ||
            profile.high_frac + profile.low_frac > 1.0)
            return fail(error, "invalid block profile fractions");
    }

    std::uint64_t stream_count = 0;
    if (!get_varint(p, end, stream_count))
        return fail(error, "truncated stream count");
    // Every directory entry is at least five 1-byte varints, so the
    // remaining bytes bound the count before anything is reserved.
    if (stream_count > num_sms * warps_per_sm ||
        stream_count > static_cast<std::uint64_t>(end - p) / 5)
        return fail(error, "impossible stream count");

    streams_.reserve(stream_count);
    std::unordered_set<std::uint64_t> seen_slots;
    for (std::uint64_t s = 0; s < stream_count; ++s) {
        std::uint64_t sm = 0;
        std::uint64_t warp = 0;
        StreamInfo info;
        if (!get_varint(p, end, sm) || !get_varint(p, end, warp) ||
            !get_varint(p, end, info.record_count) ||
            !get_varint(p, end, info.decoded_bytes) || !get_varint(p, end, info.stored_bytes))
            return fail(error, "truncated stream header");
        if (sm >= num_sms || warp >= warps_per_sm)
            return fail(error, "stream (sm, warp) out of range");
        if (!seen_slots.insert(sm * kMaxTraceWarpsPerSm + warp).second)
            return fail(error, "duplicate (sm, warp) stream");
        if (info.stored_bytes > static_cast<std::uint64_t>(end - p))
            return fail(error, "stream payload past end of file");
        if (header_.rle) {
            if (info.decoded_bytes > info.stored_bytes * kMaxRleExpansion)
                return fail(error, "impossible RLE decoded size");
        } else if (info.decoded_bytes != info.stored_bytes) {
            return fail(error, "decoded/stored size mismatch without RLE");
        }
        if (info.record_count > info.decoded_bytes / kMinRecordBytes)
            return fail(error, "impossible record count");
        info.sm = static_cast<std::uint32_t>(sm);
        info.warp = static_cast<std::uint32_t>(warp);
        info.stored = p;
        p += info.stored_bytes;
        streams_.push_back(info);
    }
    if (p != end)
        return fail(error, "trailing bytes after last stream");

    header_ok_ = true;
    if (!validate_records)
        return true;

    // Full streaming validation: walk every record of every stream once,
    // in O(1) memory per stream, so cursors handed to the replay later
    // can never fail mid-run. Empty streams (retired warps) are valid.
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        Cursor c = cursor(i);
        TraceStep step;
        while (c.next(step)) {
        }
        if (c.failed()) {
            header_ok_ = false;
            streams_.clear();
            error = std::string(c.error()) + " (stream " + std::to_string(i) + ")";
            return false;
        }
        if (!c.exhausted()) {
            header_ok_ = false;
            streams_.clear();
            return fail(error, "trailing bytes after last record");
        }
    }
    return true;
}

std::uint64_t
TraceReader::total_records() const
{
    std::uint64_t n = 0;
    for (const auto &s : streams_)
        n += s.record_count;
    return n;
}

TraceReader::Cursor
TraceReader::cursor(std::size_t i) const
{
    const StreamInfo &info = streams_[i];
    Cursor c;
    c.p_ = info.stored;
    c.end_ = info.stored + info.stored_bytes;
    c.decoded_bytes_ = info.decoded_bytes;
    c.rle_ = header_.rle;
    c.version_ = header_.version;
    c.remaining_ = info.record_count;
    return c;
}

bool
TraceReader::stats(TraceStats &out, std::string &error) const
{
    out = TraceStats{};
    std::unordered_map<LineAddr, std::uint8_t> line_classes;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i].record_count == 0)
            ++out.empty_streams;
        Cursor c = cursor(i);
        TraceStep step;
        while (c.next(step)) {
            ++out.records;
            out.alu_instrs += step.alu_instrs;
            if (step.num_lines == 0)
                continue;
            ++out.mem_records;
            out.lines += step.num_lines;
            switch (step.type) {
              case AccessType::kRead:
                ++out.reads;
                break;
              case AccessType::kWrite:
                ++out.writes;
                break;
              case AccessType::kAtomic:
                ++out.atomics;
                break;
            }
            for (std::uint32_t l = 0; l < step.num_lines; ++l) {
                const std::uint8_t cls = step.cls[l] & 3;
                out.class_counts[cls]++;
                std::uint8_t &mask = line_classes[step.lines[l]];
                if (cls != kClassUnknown)
                    mask |= static_cast<std::uint8_t>(1u << cls);
            }
        }
        if (c.failed()) {
            error = std::string(c.error()) + " (stream " + std::to_string(i) + ")";
            return false;
        }
    }
    out.unique_lines = line_classes.size();
    out.footprint_bytes = out.unique_lines * kLineBytes;
    for (const auto &[line, mask] : line_classes) {
        (void)line;
        if (mask & (mask - 1))
            ++out.class_collisions;
    }
    return true;
}

} // namespace morpheus::trace
