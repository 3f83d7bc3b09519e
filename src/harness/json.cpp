#include "harness/json.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace morpheus {

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (auto it = object.rbegin(); it != object.rend(); ++it) {
        if (it->first == key)
            return &it->second;
    }
    return nullptr;
}

double
JsonValue::number_or(const std::string &key, double fallback) const
{
    const JsonValue *v = get(key);
    return v && v->type == Type::kNumber ? v->number : fallback;
}

namespace {

class JsonParser
{
  public:
    JsonParser(const char *begin, const char *end) : p_(begin), begin_(begin), end_(end) {}

    bool
    parse(JsonValue &out, std::string &error)
    {
        skip_ws();
        if (!value(out)) {
            error = error_ + " (at byte " + std::to_string(p_ - begin_) + ")";
            return false;
        }
        skip_ws();
        if (p_ != end_) {
            error = "trailing data after JSON value (at byte " + std::to_string(p_ - begin_) + ")";
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const char *message)
    {
        if (error_.empty())
            error_ = message;
        return false;
    }

    void
    skip_ws()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (static_cast<std::size_t>(end_ - p_) < n || std::memcmp(p_, word, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    /** Nesting bound: BENCH files are a few levels deep; anything past
     *  this is hostile or corrupt input, rejected before the
     *  recursive-descent parser can exhaust the stack. */
    static constexpr int kMaxDepth = 64;

    bool
    value(JsonValue &out)
    {
        if (p_ == end_)
            return fail("unexpected end of input");
        switch (*p_) {
          case '{':
            return object(out);
          case '[':
            return array(out);
          case '"':
            out.type = JsonValue::Type::kString;
            return string(out.string);
          case 't':
            out.type = JsonValue::Type::kBool;
            out.boolean = true;
            return literal("true") || fail("bad literal");
          case 'f':
            out.type = JsonValue::Type::kBool;
            out.boolean = false;
            return literal("false") || fail("bad literal");
          case 'n':
            out.type = JsonValue::Type::kNull;
            return literal("null") || fail("bad literal");
          default:
            out.type = JsonValue::Type::kNumber;
            return number(out.number);
        }
    }

    bool
    object(JsonValue &out)
    {
        out.type = JsonValue::Type::kObject;
        if (++depth_ > kMaxDepth)
            return fail("nesting too deep");
        ++p_; // '{'
        skip_ws();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (p_ == end_ || *p_ != '"' || !string(key))
                return fail("expected object key");
            skip_ws();
            if (p_ == end_ || *p_ != ':')
                return fail("expected ':' after object key");
            ++p_;
            skip_ws();
            JsonValue child;
            if (!value(child))
                return false;
            out.object.emplace_back(std::move(key), std::move(child));
            skip_ws();
            if (p_ == end_)
                return fail("unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.type = JsonValue::Type::kArray;
        if (++depth_ > kMaxDepth)
            return fail("nesting too deep");
        ++p_; // '['
        skip_ws();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            JsonValue child;
            if (!value(child))
                return false;
            out.array.push_back(std::move(child));
            skip_ws();
            if (p_ == end_)
                return fail("unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string &out)
    {
        ++p_; // '"'
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            char c = *p_++;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (p_ == end_)
                return fail("unterminated string escape");
            switch (*p_++) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (end_ - p_ < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p_++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The report writer only escapes control characters;
                // anything in the Latin-1 range survives, the rest is
                // replaced.
                out.push_back(code < 0x100 ? static_cast<char>(code) : '?');
                break;
              }
              default:
                return fail("unknown string escape");
            }
        }
        if (p_ == end_)
            return fail("unterminated string");
        ++p_; // closing '"'
        return true;
    }

    bool
    number(double &out)
    {
        // strtod accepts "inf"/"nan"/hex-floats, none of which is JSON;
        // gate on the grammar's first character and reject non-finite
        // results (overflowed exponents) after the fact. strtod also
        // needs a NUL-terminated buffer guarantee — callers hand whole
        // documents, which std::string provides.
        if (*p_ != '-' && (*p_ < '0' || *p_ > '9'))
            return fail("expected a JSON value");
        char *end = nullptr;
        out = std::strtod(p_, &end);
        if (end == p_)
            return fail("expected a JSON value");
        if (!std::isfinite(out))
            return fail("number out of range (JSON has no inf/nan)");
        p_ = end;
        return true;
    }

    const char *p_;
    const char *begin_;
    const char *end_;
    int depth_ = 0;
    std::string error_;
};

} // namespace

bool
parse_json_value(const std::string &text, JsonValue &out, std::string &error)
{
    JsonParser parser(text.data(), text.data() + text.size());
    return parser.parse(out, error);
}

} // namespace morpheus
