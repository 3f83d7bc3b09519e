#ifndef MORPHEUS_HARNESS_JSON_HPP_
#define MORPHEUS_HARNESS_JSON_HPP_

/**
 * @file
 * Minimal DOM-style JSON reader behind the report loader
 * (harness/report.cpp, which morpheus_bench_diff uses to load BENCH
 * files): objects, arrays, strings, numbers, booleans, null, with
 * friendly byte-offset errors, a recursion-depth cap, and strict
 * rejection of non-finite numbers. Writing stays with RunReport, which
 * owns its stable layout.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace morpheus {

struct JsonValue
{
    enum class Type : std::uint8_t
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Last match wins: a duplicate key overrides earlier ones, the
     *  conventional JSON-parser behavior, instead of silently shadowing
     *  the later (usually hand-edited) value. @return nullptr when the
     *  key is absent (or this value is not an object). */
    const JsonValue *get(const std::string &key) const;

    /** Typed accessor with a fallback (absent/mistyped -> fallback). */
    double number_or(const std::string &key, double fallback) const;
};

/**
 * Parses exactly one JSON document covering all of @p text (trailing
 * non-whitespace is an error). @return false with @p error set (including
 * the byte offset) on malformed input. Nesting is capped at 64 levels so
 * hostile input cannot exhaust the parser's stack. Takes a std::string
 * (not a string_view) because the number scanner leans on strtod's
 * NUL-terminated-buffer contract.
 */
bool parse_json_value(const std::string &text, JsonValue &out, std::string &error);

} // namespace morpheus

#endif // MORPHEUS_HARNESS_JSON_HPP_
