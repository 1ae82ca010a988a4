#include "common/json_value.hh"

#include <cctype>
#include <cstdlib>

#include "common/logging.hh"

namespace gpumech
{

bool
JsonValue::boolean() const
{
    if (valueKind != Kind::Bool)
        panic("JsonValue::boolean() on a non-bool value");
    return boolValue;
}

double
JsonValue::number() const
{
    if (valueKind != Kind::Number)
        panic("JsonValue::number() on a non-number value");
    return numberValue;
}

const std::string &
JsonValue::string() const
{
    if (valueKind != Kind::String)
        panic("JsonValue::string() on a non-string value");
    return stringValue;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (valueKind != Kind::Array)
        panic("JsonValue::items() on a non-array value");
    return arrayItems;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (valueKind != Kind::Object)
        panic("JsonValue::members() on a non-object value");
    return objectMembers;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (valueKind != Kind::Object)
        return nullptr;
    for (const auto &member : objectMembers) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.valueKind = Kind::Bool;
    v.boolValue = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.valueKind = Kind::Number;
    v.numberValue = d;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.valueKind = Kind::String;
    v.stringValue = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.valueKind = Kind::Array;
    v.arrayItems = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.valueKind = Kind::Object;
    v.objectMembers = std::move(members);
    return v;
}

namespace
{

// Local ASSIGN_OR_RETURN over Result<JsonValue>: the common macro
// would shadow-declare; keep the parser self-contained.
#define GPUMECH_JSON_ASSIGN(lhs, rexpr)                                \
    do {                                                               \
        auto gpumech_json_r = (rexpr);                                 \
        if (!gpumech_json_r.ok())                                      \
            return gpumech_json_r.status();                            \
        lhs = std::move(gpumech_json_r).value();                       \
    } while (0)

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text(text) {}

    Result<JsonValue>
    parse()
    {
        skipWs();
        JsonValue root;
        GPUMECH_JSON_ASSIGN(root, parseValue(0));
        skipWs();
        if (pos != text.size())
            return error("trailing characters after JSON document");
        return root;
    }

  private:
    Status
    error(const std::string &what) const
    {
        return Status(StatusCode::ParseError,
                      msg("json offset ", pos, ": ", what));
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    Result<JsonValue>
    parseValue(std::size_t depth)
    {
        if (depth > jsonMaxDepth)
            return error("nesting too deep");
        if (pos >= text.size())
            return error("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"': {
            std::string s;
            GPUMECH_TRY(parseString(s));
            return JsonValue::makeString(std::move(s));
          }
          case 't':
            GPUMECH_TRY(expectWord("true"));
            return JsonValue::makeBool(true);
          case 'f':
            GPUMECH_TRY(expectWord("false"));
            return JsonValue::makeBool(false);
          case 'n':
            GPUMECH_TRY(expectWord("null"));
            return JsonValue::makeNull();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            return error(msg("unexpected character '", c, "'"));
        }
    }

    Status
    expectWord(const char *word)
    {
        std::size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text.compare(pos, n, word) != 0)
            return error(msg("expected '", word, "'"));
        pos += n;
        return Status();
    }

    Result<JsonValue>
    parseObject(std::size_t depth)
    {
        ++pos; // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (consume('}'))
            return JsonValue::makeObject(std::move(members));
        while (true) {
            skipWs();
            if (pos >= text.size() || text[pos] != '"')
                return error("expected object key string");
            std::string key;
            GPUMECH_TRY(parseString(key));
            skipWs();
            if (!consume(':'))
                return error("expected ':' after object key");
            skipWs();
            JsonValue value;
            GPUMECH_JSON_ASSIGN(value, parseValue(depth + 1));
            members.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return JsonValue::makeObject(std::move(members));
            return error("expected ',' or '}' in object");
        }
    }

    Result<JsonValue>
    parseArray(std::size_t depth)
    {
        ++pos; // '['
        std::vector<JsonValue> items;
        skipWs();
        if (consume(']'))
            return JsonValue::makeArray(std::move(items));
        while (true) {
            skipWs();
            JsonValue value;
            GPUMECH_JSON_ASSIGN(value, parseValue(depth + 1));
            items.push_back(std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return JsonValue::makeArray(std::move(items));
            return error("expected ',' or ']' in array");
        }
    }

    /** One \uXXXX escape's four hex digits; -1 on malformed input. */
    int
    hex4()
    {
        if (pos + 4 > text.size())
            return -1;
        int value = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text[pos + i];
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                digit = c - 'A' + 10;
            else
                return -1;
            value = value * 16 + digit;
        }
        pos += 4;
        return value;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    Status
    parseString(std::string &out)
    {
        ++pos; // '"'
        out.clear();
        while (true) {
            if (pos >= text.size())
                return error("unterminated string");
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return Status();
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return error("unescaped control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos; // '\'
            if (pos >= text.size())
                return error("unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                int unit = hex4();
                if (unit < 0)
                    return error("bad \\u escape");
                std::uint32_t cp = static_cast<std::uint32_t>(unit);
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the paired low half.
                    if (pos + 1 >= text.size() || text[pos] != '\\' ||
                        text[pos + 1] != 'u') {
                        return error("unpaired surrogate");
                    }
                    pos += 2;
                    int low = hex4();
                    if (low < 0xDC00 || low > 0xDFFF)
                        return error("bad low surrogate");
                    cp = 0x10000 +
                         ((cp - 0xD800) << 10) +
                         (static_cast<std::uint32_t>(low) - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return error("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return error(msg("bad escape '\\", esc, "'"));
            }
        }
    }

    Result<JsonValue>
    parseNumber()
    {
        std::size_t start = pos;
        consume('-');
        if (pos >= text.size() || !std::isdigit(
                static_cast<unsigned char>(text[pos]))) {
            return error("expected digit in number");
        }
        if (text[pos] == '0') {
            ++pos;
        } else {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (consume('.')) {
            if (pos >= text.size() || !std::isdigit(
                    static_cast<unsigned char>(text[pos])))
                return error("expected digit after '.'");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() || !std::isdigit(
                    static_cast<unsigned char>(text[pos])))
                return error("expected digit in exponent");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        std::string token = text.substr(start, pos - start);
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return error(msg("bad number '", token, "'"));
        return JsonValue::makeNumber(value);
    }

#undef GPUMECH_JSON_ASSIGN

    const std::string &text;
    std::size_t pos = 0;
};

} // namespace

Result<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace gpumech
