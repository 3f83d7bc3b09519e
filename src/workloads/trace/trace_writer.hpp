#ifndef MORPHEUS_WORKLOADS_TRACE_TRACE_WRITER_HPP_
#define MORPHEUS_WORKLOADS_TRACE_TRACE_WRITER_HPP_

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "workloads/trace/trace_format.hpp"

namespace morpheus::trace {

/**
 * Streaming `.mtrc` writer: emits the header up front, then one stream
 * at a time — begin_stream(), add_step() per record, end_stream() —
 * holding only the current stream's encoded payload in memory (records
 * encode straight into it, so peak memory is the *encoded* size of one
 * stream, a few bytes per record). Because it drives the same
 * StreamEncoder, put_header and put_stream_section as Trace::encode(), a
 * written file is byte-identical to materializing the equivalent Trace
 * and saving it — the converter and large-trace generators get
 * canonical output for free.
 *
 * The stream directory interleaves with payloads in the format, so no
 * seeking is needed; the declared stream count is checked at close().
 */
class TraceFileWriter
{
  public:
    TraceFileWriter() = default;
    ~TraceFileWriter();
    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Opens @p path and writes the header plus the declared
     *  @p stream_count. @return false with @p error on IO failure or
     *  out-of-ceiling metadata. */
    bool open(const std::string &path, const TraceHeader &header, std::uint64_t stream_count,
              std::string &error);

    /** Starts the next (sm, warp) stream. Slots must be unique and in
     *  range; streams may be empty (end_stream right after). */
    bool begin_stream(std::uint32_t sm, std::uint32_t warp, std::string &error);

    /** Appends one record to the current stream. */
    bool add_step(const TraceStep &step, std::string &error);

    /** Finishes the current stream: RLE-compresses (if enabled) and
     *  writes its section. */
    bool end_stream(std::string &error);

    /**
     * Writes one whole stream whose records were already encoded with a
     * StreamEncoder of the header's version (the converter buffers
     * per-stream payloads this way while the input interleaves streams).
     * Equivalent to begin_stream + the add_steps + end_stream.
     */
    bool add_encoded_stream(std::uint32_t sm, std::uint32_t warp, std::uint64_t record_count,
                            const std::vector<std::uint8_t> &payload, std::string &error);

    /** Flushes and closes. @return false when fewer/more streams than
     *  declared were written or the final write fails. Idempotent. */
    bool close(std::string &error);

    std::uint64_t records_written() const { return records_written_; }

  private:
    bool write_bytes(const std::uint8_t *data, std::size_t size, std::string &error);

    std::FILE *file_ = nullptr;
    std::string path_;
    bool rle_ = true;
    std::uint32_t num_sms_ = 0;
    std::uint32_t warps_per_sm_ = 0;
    std::uint64_t declared_streams_ = 0;
    std::uint64_t streams_written_ = 0;
    std::uint64_t records_written_ = 0;
    std::uint8_t version_ = kFormatVersion;
    bool in_stream_ = false;
    std::uint32_t stream_sm_ = 0;
    std::uint32_t stream_warp_ = 0;
    std::uint64_t stream_records_ = 0;
    StreamEncoder encoder_{kFormatVersion};
    std::vector<std::uint8_t> payload_;
    std::vector<std::uint8_t> scratch_;
    std::unordered_set<std::uint64_t> seen_slots_;
};

} // namespace morpheus::trace

#endif // MORPHEUS_WORKLOADS_TRACE_TRACE_WRITER_HPP_
