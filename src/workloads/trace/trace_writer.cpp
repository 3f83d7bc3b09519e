#include "workloads/trace/trace_writer.hpp"

namespace morpheus::trace {

TraceFileWriter::~TraceFileWriter()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
TraceFileWriter::write_bytes(const std::uint8_t *data, std::size_t size, std::string &error)
{
    if (size > 0 && std::fwrite(data, 1, size, file_) != size) {
        error = "short write to '" + path_ + "'";
        return false;
    }
    return true;
}

bool
TraceFileWriter::open(const std::string &path, const TraceHeader &header,
                      std::uint64_t stream_count, std::string &error)
{
    if (file_) {
        error = "writer already open";
        return false;
    }
    if (!header_within_ceilings(header, stream_count)) {
        error = "trace header exceeds .mtrc format ceilings";
        return false;
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    path_ = path;
    rle_ = header.rle;
    version_ = header.version;
    num_sms_ = header.num_sms;
    warps_per_sm_ = header.warps_per_sm;
    declared_streams_ = stream_count;
    streams_written_ = 0;
    records_written_ = 0;
    seen_slots_.clear();

    scratch_.clear();
    put_header(scratch_, header, stream_count);
    return write_bytes(scratch_.data(), scratch_.size(), error);
}

bool
TraceFileWriter::begin_stream(std::uint32_t sm, std::uint32_t warp, std::string &error)
{
    if (!file_ || in_stream_) {
        error = !file_ ? "writer not open" : "previous stream not ended";
        return false;
    }
    if (streams_written_ == declared_streams_) {
        error = "more streams than declared";
        return false;
    }
    if (sm >= num_sms_ || warp >= warps_per_sm_) {
        error = "stream (sm, warp) out of range";
        return false;
    }
    if (!seen_slots_.insert(static_cast<std::uint64_t>(sm) * kMaxTraceWarpsPerSm + warp)
             .second) {
        error = "duplicate (sm, warp) stream";
        return false;
    }
    in_stream_ = true;
    stream_sm_ = sm;
    stream_warp_ = warp;
    stream_records_ = 0;
    payload_.clear();
    encoder_ = StreamEncoder(version_);
    return true;
}

bool
TraceFileWriter::add_step(const TraceStep &step, std::string &error)
{
    if (!in_stream_) {
        error = "add_step outside begin_stream/end_stream";
        return false;
    }
    if (step.num_lines > WarpStep::kMaxLinesPerInst) {
        error = "step exceeds max lines per instruction";
        return false;
    }
    encoder_.add(step, payload_);
    ++stream_records_;
    return true;
}

bool
TraceFileWriter::end_stream(std::string &error)
{
    if (!in_stream_) {
        error = "end_stream without begin_stream";
        return false;
    }
    in_stream_ = false;
    scratch_.clear();
    put_stream_section(scratch_, stream_sm_, stream_warp_, stream_records_, payload_, rle_);
    if (!write_bytes(scratch_.data(), scratch_.size(), error))
        return false;
    records_written_ += stream_records_;
    ++streams_written_;
    payload_.clear();
    return true;
}

bool
TraceFileWriter::add_encoded_stream(std::uint32_t sm, std::uint32_t warp,
                                    std::uint64_t record_count,
                                    const std::vector<std::uint8_t> &payload,
                                    std::string &error)
{
    if (!begin_stream(sm, warp, error))
        return false;
    if (record_count > payload.size() / kMinRecordBytes) {
        in_stream_ = false;
        error = "impossible record count for payload size";
        return false;
    }
    payload_ = payload;
    stream_records_ = record_count;
    return end_stream(error);
}

bool
TraceFileWriter::close(std::string &error)
{
    if (!file_)
        return true;
    bool ok = true;
    if (in_stream_) {
        error = "close with an unfinished stream";
        ok = false;
    }
    if (ok && streams_written_ != declared_streams_) {
        error = "fewer streams written than declared";
        ok = false;
    }
    if (std::fclose(file_) != 0 && ok) {
        error = "short write to '" + path_ + "'";
        ok = false;
    }
    file_ = nullptr;
    return ok;
}

} // namespace morpheus::trace
