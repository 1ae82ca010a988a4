/**
 * @file
 * JSON parser (common/json_value) unit tests: grammar acceptance,
 * strictness (trailing garbage, control characters, depth cap),
 * escape decoding, and member lookup. A writer→parser round trip
 * pins the two sides of the JSON layer to each other.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/json_value.hh"

using namespace gpumech;

namespace
{

JsonValue
mustParse(const std::string &text)
{
    Result<JsonValue> r = parseJson(text);
    EXPECT_TRUE(r.ok()) << r.status().toString() << " for: " << text;
    return r.ok() ? std::move(r).value() : JsonValue();
}

StatusCode
parseCode(const std::string &text)
{
    Result<JsonValue> r = parseJson(text);
    return r.ok() ? StatusCode::Ok : r.status().code();
}

TEST(JsonValue, ParsesScalars)
{
    EXPECT_TRUE(mustParse("null").isNull());
    EXPECT_TRUE(mustParse("true").boolean());
    EXPECT_FALSE(mustParse("false").boolean());
    EXPECT_DOUBLE_EQ(mustParse("42").number(), 42.0);
    EXPECT_DOUBLE_EQ(mustParse("-1.5e2").number(), -150.0);
    EXPECT_DOUBLE_EQ(mustParse("0").number(), 0.0);
    EXPECT_EQ(mustParse("\"hi\"").string(), "hi");
}

TEST(JsonValue, ParsesContainers)
{
    JsonValue v = mustParse(
        R"({"a":[1,2,3],"b":{"c":"d"},"e":null})");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members().size(), 3u);
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_DOUBLE_EQ(a->items()[1].number(), 2.0);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_NE(b->find("c"), nullptr);
    EXPECT_EQ(b->find("c")->string(), "d");
    EXPECT_TRUE(v.find("e")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, EmptyContainersAndWhitespace)
{
    EXPECT_EQ(mustParse(" [ ] ").items().size(), 0u);
    EXPECT_EQ(mustParse("\t{ }\n").members().size(), 0u);
}

TEST(JsonValue, DecodesEscapes)
{
    JsonValue v = mustParse(R"("a\"b\\c\n\tA")");
    EXPECT_EQ(v.string(), "a\"b\\c\n\tA");
}

TEST(JsonValue, DecodesSurrogatePairToUtf8)
{
    // U+1F600 as a surrogate pair -> 4-byte UTF-8.
    JsonValue v = mustParse(R"("😀")");
    EXPECT_EQ(v.string(), "\xF0\x9F\x98\x80");
}

TEST(JsonValue, RejectsUnpairedSurrogates)
{
    EXPECT_EQ(parseCode(R"("\uD83D")"), StatusCode::ParseError);
    EXPECT_EQ(parseCode(R"("\uDE00")"), StatusCode::ParseError);
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    EXPECT_EQ(parseCode(""), StatusCode::ParseError);
    EXPECT_EQ(parseCode("{"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("[1,]"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("{\"a\":}"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("{\"a\" 1}"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("{a:1}"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("tru"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("01"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("1."), StatusCode::ParseError);
    EXPECT_EQ(parseCode("1e"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("-"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("\"unterminated"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("\"bad\x01ctl\""), StatusCode::ParseError);
    EXPECT_EQ(parseCode(R"("\q")"), StatusCode::ParseError);
}

TEST(JsonValue, RejectsTrailingGarbage)
{
    EXPECT_EQ(parseCode("{} extra"), StatusCode::ParseError);
    EXPECT_EQ(parseCode("1 2"), StatusCode::ParseError);
}

TEST(JsonValue, ErrorsCarryByteOffset)
{
    Result<JsonValue> r = parseJson("[1, x]");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("json offset 4"),
              std::string::npos)
        << r.status().message();
}

TEST(JsonValue, EnforcesDepthCap)
{
    std::string deep(jsonMaxDepth + 8, '[');
    deep += std::string(jsonMaxDepth + 8, ']');
    EXPECT_EQ(parseCode(deep), StatusCode::ParseError);

    // At the cap itself, the document still parses.
    std::string ok(jsonMaxDepth, '[');
    ok += std::string(jsonMaxDepth, ']');
    EXPECT_EQ(parseCode(ok), StatusCode::Ok);
}

TEST(JsonValue, DuplicateKeysResolveToFirst)
{
    JsonValue v = mustParse(R"({"k":1,"k":2})");
    EXPECT_DOUBLE_EQ(v.find("k")->number(), 1.0);
}

TEST(JsonValue, RoundTripsJsonWriterOutput)
{
    JsonWriter w;
    w.field("name", "kernel \"x\"\n");
    w.field("cpi", 1.5);
    w.field("count", std::uint64_t{42});
    w.field("flag", true);
    w.beginObject("nested");
    w.field("inner", "v");
    w.endObject();
    JsonValue v = mustParse(w.finish());
    EXPECT_EQ(v.find("name")->string(), "kernel \"x\"\n");
    EXPECT_DOUBLE_EQ(v.find("cpi")->number(), 1.5);
    EXPECT_DOUBLE_EQ(v.find("count")->number(), 42.0);
    EXPECT_TRUE(v.find("flag")->boolean());
    EXPECT_EQ(v.find("nested")->find("inner")->string(), "v");
}

} // namespace
