/**
 * @file
 * Minimal JSON parser for the serving front end.
 *
 * JsonWriter (json.hh) covers the write side; this is the read side:
 * a strict recursive-descent parser producing an immutable JsonValue
 * tree. It exists so the `gpumech_serve` daemon can accept JSON-lines
 * requests without pulling in a JSON library, and it follows the
 * repo-wide error contract: malformed input returns a Status (with the
 * 0-based byte offset of the offending character in the message)
 * instead of dying, so one bad request line degrades to one error
 * response.
 *
 * Supported: objects, arrays, strings (with \uXXXX escapes, encoded
 * to UTF-8; surrogate pairs are combined), numbers (as double),
 * true/false/null. Strictness: no trailing garbage, no comments, no
 * trailing commas, nesting capped at jsonMaxDepth.
 */

#ifndef GPUMECH_COMMON_JSON_VALUE_HH
#define GPUMECH_COMMON_JSON_VALUE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace gpumech
{

/** Nesting cap: parse depth beyond this is a ParseError. */
inline constexpr std::size_t jsonMaxDepth = 64;

/** One parsed JSON value (object members keep document order). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isNumber() const { return valueKind == Kind::Number; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    /** Scalar accessors; panic on kind mismatch (check first). */
    bool boolean() const;
    double number() const;
    const std::string &string() const;

    /** Array elements; panic when not an array. */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order; panic when not an object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /**
     * Member lookup; nullptr when absent or not an object. Duplicate
     * keys resolve to the first occurrence.
     */
    const JsonValue *find(const std::string &key) const;

    // --- construction (parser + tests) ---
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double d);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind valueKind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<JsonValue> arrayItems;
    std::vector<std::pair<std::string, JsonValue>> objectMembers;
};

/**
 * Parse one complete JSON document. The whole input must be consumed
 * (modulo surrounding whitespace); anything else is a ParseError whose
 * message carries the byte offset.
 */
Result<JsonValue> parseJson(const std::string &text);

} // namespace gpumech

#endif // GPUMECH_COMMON_JSON_VALUE_HH
