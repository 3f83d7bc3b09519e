#ifndef MORPHEUS_WORKLOADS_TRACE_TRACE_READER_HPP_
#define MORPHEUS_WORKLOADS_TRACE_TRACE_READER_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/trace/trace_format.hpp"

namespace morpheus::trace {

/**
 * Read-only memory map of a file (zero-copy `.mtrc` access). POSIX mmap
 * with a heap-buffer fallback for platforms without it; either way,
 * data()/size() expose one contiguous immutable byte range for the
 * file's lifetime. Move-only RAII.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();
    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Maps @p path read-only. @return false and fills @p error when the
     *  file cannot be opened, sized, or mapped. An empty file maps to an
     *  empty range (data() == nullptr, size() == 0). */
    bool open(const std::string &path, std::string &error);
    void close();

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool is_open() const { return open_; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    bool open_ = false;
    bool mapped_ = false;                 ///< mmap vs fallback buffer
    std::vector<std::uint8_t> fallback_;  ///< used when mmap is unavailable
};

/**
 * The one `.mtrc` parser: validates the header and stream directory over
 * a memory-mapped (or caller-provided) buffer and hands out per-stream
 * cursors that decode one record at a time straight off the mapped
 * bytes — RLE payloads are expanded incrementally inside the cursor, so
 * a multi-GB trace replays in O(streams) memory. Everything that reads
 * a trace goes through it: TraceWorkload replays its cursors,
 * Trace::decode drains them into memory (and alone enforces
 * kMaxTraceRecords, since only it holds every step), and stats() walks
 * them.
 *
 * open() runs a full validation pass by default — every record of every
 * stream is walked once (bounded memory) so that replay later cannot
 * fail mid-run on malformed input; cursors over a validated reader
 * never error. The buffer behind init() (and the mapping behind open())
 * must outlive the reader and its cursors.
 */
class TraceReader
{
  public:
    /** Directory entry of one (sm, warp) stream. */
    struct StreamInfo
    {
        std::uint32_t sm = 0;
        std::uint32_t warp = 0;
        std::uint64_t record_count = 0;
        std::uint64_t decoded_bytes = 0;    ///< payload size before RLE
        const std::uint8_t *stored = nullptr;
        std::uint64_t stored_bytes = 0;
    };

    /**
     * Pull-based record iterator over one stream. Copyable value type:
     * a handful of offsets plus the incremental RLE state; no
     * allocation. Obtain via TraceReader::cursor(i).
     */
    class Cursor
    {
      public:
        Cursor() = default;

        /** Decodes the next record. @return false at end of stream or on
         *  malformed input (then failed() is true — impossible once the
         *  owning reader validated). */
        bool next(TraceStep &out);

        std::uint64_t remaining() const { return remaining_; }
        bool failed() const { return failed_; }
        const char *error() const { return error_; }

        /** True when the payload was consumed exactly (canonical end). */
        bool exhausted() const;

        /** Incremental byte source over the stored payload (plain or
         *  RLE) — the pull interface decode_record() consumes. Public
         *  for the codec template; not meant for direct use. */
        bool pull(std::uint8_t &b);

      private:
        friend class TraceReader;

        const std::uint8_t *p_ = nullptr;
        const std::uint8_t *end_ = nullptr;
        std::uint64_t produced_ = 0;
        std::uint64_t decoded_bytes_ = 0;
        std::uint64_t lit_remaining_ = 0;
        std::uint64_t run_remaining_ = 0;
        std::uint8_t run_byte_ = 0;
        bool rle_ = false;

        std::uint8_t version_ = kFormatVersion;
        std::uint64_t remaining_ = 0;
        std::uint64_t prev_pc_ = 0;
        LineAddr prev_line_ = 0;
        bool failed_ = false;
        const char *error_ = "";
    };

    TraceReader() = default;

    /** Maps @p path and validates it (header, directory, full record
     *  walk). @return false with @p error on any malformed input. */
    bool open(const std::string &path, std::string &error);

    /**
     * Validates an externally owned buffer instead of a file (the fuzz
     * harness's entry). @p validate_records false skips the full record
     * walk (header/directory checks only) — cursors may then fail().
     */
    bool init(const std::uint8_t *data, std::size_t size, std::string &error,
              bool validate_records = true);

    bool is_open() const { return !streams_.empty() || header_ok_; }

    const TraceHeader &header() const { return header_; }
    const std::string &name() const { return header_.name; }
    std::uint8_t version() const { return header_.version; }
    std::uint32_t num_sms() const { return header_.num_sms; }
    std::uint32_t warps_per_sm() const { return header_.warps_per_sm; }
    bool rle() const { return header_.rle; }
    bool has_profile() const { return header_.has_profile; }
    const BlockDataProfile &profile() const { return header_.profile; }

    std::size_t stream_count() const { return streams_.size(); }
    const StreamInfo &stream(std::size_t i) const { return streams_[i]; }

    /** Total records across all streams (from the directory). */
    std::uint64_t total_records() const;

    /** A fresh cursor positioned at stream @p i's first record. */
    Cursor cursor(std::size_t i) const;

    /** Aggregate statistics in one streaming pass. Memory is
     *  O(unique lines) for the footprint/collision counters, never
     *  O(records). @return false with @p error on malformed records
     *  (possible only when init() skipped validation). */
    bool stats(TraceStats &out, std::string &error) const;

  private:
    bool parse(const std::uint8_t *data, std::size_t size, std::string &error,
               bool validate_records);

    MappedFile file_;
    TraceHeader header_;
    bool header_ok_ = false;
    std::vector<StreamInfo> streams_;
};

} // namespace morpheus::trace

#endif // MORPHEUS_WORKLOADS_TRACE_TRACE_READER_HPP_
