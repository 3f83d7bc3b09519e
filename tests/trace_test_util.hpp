#ifndef MORPHEUS_TESTS_TRACE_TEST_UTIL_HPP_
#define MORPHEUS_TESTS_TRACE_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/trace/trace_format.hpp"
#include "workloads/trace/trace_reader.hpp"

namespace morpheus::test {

/**
 * An in-memory trace opened through TraceReader, the one `.mtrc` parser
 * and the only thing TraceWorkload replays. Owns the encode() bytes the
 * reader's cursors borrow, so it is neither copied nor moved.
 */
struct EncodedTrace
{
    explicit EncodedTrace(const trace::Trace &t) : bytes(t.encode())
    {
        std::string error;
        EXPECT_TRUE(reader.init(bytes.data(), bytes.size(), error)) << error;
    }
    EncodedTrace(const EncodedTrace &) = delete;
    EncodedTrace &operator=(const EncodedTrace &) = delete;

    trace::TraceStats
    stats() const
    {
        trace::TraceStats st;
        std::string error;
        EXPECT_TRUE(reader.stats(st, error)) << error;
        return st;
    }

    const std::vector<std::uint8_t> bytes;
    trace::TraceReader reader;
};

} // namespace morpheus::test

#endif // MORPHEUS_TESTS_TRACE_TEST_UTIL_HPP_
