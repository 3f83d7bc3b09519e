#ifndef MORPHEUS_SIM_STATE_IO_HPP_
#define MORPHEUS_SIM_STATE_IO_HPP_

/**
 * @file
 * Byte-oriented state archives: the canonical configuration bytes behind
 * the result cache key (harness/config_codec.hpp) and the RunResult
 * payload of a `.mrce` cache entry (docs/CACHE_FORMAT.md). A type
 * exposes ONE template member
 *
 *     template <class A> void state(A &ar);
 *
 * that lists its fields with ar.field()/ar.str()/ar.obj(); the same
 * function body drives both StateWriter (serialize) and StateReader
 * (restore), so the two directions cannot drift apart.
 *
 * Encoding is fixed-width little-endian with no framing; the layout is
 * defined entirely by the order of calls, and versioning happens at the
 * enclosing container (the `.mrce` header). StateReader bounds-checks
 * every read and throws StateError on underflow, so a truncated payload
 * fails loudly instead of misaligning.
 */

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace morpheus {

/** Malformed, truncated, or shape-mismatched state payload. */
class StateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** FNV-1a 64-bit digest; the `.mrce` payload check and the cache key hash. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline std::uint64_t
fnv1a64(std::string_view bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/** Serializing archive: appends state to an in-memory byte buffer. */
class StateWriter
{
  public:
    /** Scalar member: bool, integral, enum, or double (as a bit pattern). */
    template <typename T>
    void field(const T &v)
    {
        put_scalar(v);
    }

    /** Length-prefixed string. */
    void str(const std::string &s)
    {
        put_u64(s.size());
        buf_.append(s.data(), s.size());
    }

    /** Nested type with its own state() template. */
    template <typename T>
    void obj(T &x)
    {
        x.state(*this);
    }

    const std::string &bytes() const { return buf_; }
    std::uint64_t digest() const { return fnv1a64(buf_); }

  private:
    template <typename T>
    void put_scalar(const T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "field() takes scalars; use obj()/str() for aggregates");
        if constexpr (std::is_same_v<T, bool>) {
            const std::uint8_t b = v ? 1 : 0;
            put_raw(&b, 1);
        } else if constexpr (std::is_enum_v<T>) {
            auto u = static_cast<std::underlying_type_t<T>>(v);
            put_raw(&u, sizeof u);
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == 8, "serialize doubles, not floats");
            std::uint64_t bits;
            std::memcpy(&bits, &v, 8);
            put_raw(&bits, 8);
        } else {
            put_raw(&v, sizeof v);
        }
    }

    void put_u64(std::uint64_t v) { put_raw(&v, 8); }
    void put_raw(const void *p, std::size_t n)
    {
        buf_.append(static_cast<const char *>(p), n);
    }

    std::string buf_;
};

/** Restoring archive: bounds-checked reads over a byte view. */
class StateReader
{
  public:
    explicit StateReader(std::string_view bytes) : buf_(bytes) {}

    template <typename T>
    void field(T &v)
    {
        get_scalar(v);
    }

    void str(std::string &s)
    {
        const std::uint64_t n = get_u64();
        if (n > remaining())
            throw StateError("state: string length exceeds payload");
        s.assign(buf_.data() + pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
    }

    template <typename T>
    void obj(T &x)
    {
        x.state(*this);
    }

    bool done() const { return pos_ == buf_.size(); }
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    template <typename T>
    void get_scalar(T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "field() takes scalars; use obj()/str() for aggregates");
        if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = 0;
            get_raw(&b, 1);
            v = b != 0;
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u{};
            get_raw(&u, sizeof u);
            v = static_cast<T>(u);
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == 8, "serialize doubles, not floats");
            std::uint64_t bits = 0;
            get_raw(&bits, 8);
            std::memcpy(&v, &bits, 8);
        } else {
            get_raw(&v, sizeof v);
        }
    }

    std::uint64_t get_u64()
    {
        std::uint64_t v = 0;
        get_raw(&v, 8);
        return v;
    }

    void get_raw(void *p, std::size_t n)
    {
        if (n > remaining())
            throw StateError("state: truncated payload");
        std::memcpy(p, buf_.data() + pos_, n);
        pos_ += n;
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_SIM_STATE_IO_HPP_
