// Unit tests for the serving layer's protocol pieces: the incremental
// HTTP/1.1 request parser against hostile and fragmented inputs, response
// serialization, the streaming JSON writer, and the ingest-body value
// parser.  These run in-process (no sockets); the end-to-end server path is
// covered by serve_e2e_test.cc.

#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "server/http.h"
#include "server/json.h"

namespace aqua {
namespace {

HttpRequestParser::Limits SmallLimits() {
  HttpRequestParser::Limits limits;
  limits.max_header_bytes = 256;
  limits.max_body_bytes = 64;
  return limits;
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  const auto state =
      parser.Feed("GET /hotlist?k=10&beta=3.0 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kComplete);
  const HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/hotlist");
  EXPECT_EQ(request.QueryParam("k"), "10");
  EXPECT_EQ(request.QueryInt("k", 0), 10);
  EXPECT_EQ(request.QueryDouble("beta", 0.0), 3.0);
  EXPECT_TRUE(request.keep_alive);  // HTTP/1.1 default
  EXPECT_EQ(request.Header("host"), "x");  // case-insensitive
}

TEST(HttpParserTest, ByteAtATimeFeedCompletes) {
  const std::string wire =
      "POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\n1 2 3";
  HttpRequestParser parser;
  HttpRequestParser::State state = HttpRequestParser::State::kNeedMore;
  for (const char c : wire) {
    state = parser.Feed(std::string_view(&c, 1));
  }
  ASSERT_EQ(state, HttpRequestParser::State::kComplete);
  const HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "1 2 3");
}

TEST(HttpParserTest, PipelinedRequestsReparse) {
  HttpRequestParser parser;
  const auto state = parser.Feed(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.TakeRequest().path, "/a");
  ASSERT_EQ(parser.Reparse(), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.TakeRequest().path, "/b");
  EXPECT_EQ(parser.Reparse(), HttpRequestParser::State::kNeedMore);
}

TEST(HttpParserTest, PercentDecoding) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET /p%20q?a%3db=%2Fv HTTP/1.1\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  const HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.path, "/p q");
  EXPECT_EQ(request.QueryParam("a=b"), "/v");
}

TEST(HttpParserTest, MalformedInputsError) {
  const char* kBad[] = {
      "GET\r\n\r\n",                                // no target/version
      "GET / HTTP/2.0\r\n\r\n",                     // unsupported version
      "GET / HTTP/1.1 extra\r\n\r\n",               // junk after version
      "GET /%zz HTTP/1.1\r\n\r\n",                  // bad escape
      "GET /%2 HTTP/1.1\r\n\r\n",                   // truncated escape
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",      // header without colon
      "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",     // empty header name
      "GET / HTTP/1.1\r\nA: b\r\n folded\r\n\r\n",  // obs-fold
      "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
  };
  for (const char* wire : kBad) {
    HttpRequestParser parser;
    EXPECT_EQ(parser.Feed(wire), HttpRequestParser::State::kError) << wire;
  }
}

TEST(HttpParserTest, OversizedHeaderSectionErrors) {
  HttpRequestParser parser(SmallLimits());
  std::string wire = "GET / HTTP/1.1\r\nX-Pad: ";
  wire.append(500, 'a');
  EXPECT_EQ(parser.Feed(wire), HttpRequestParser::State::kError);
}

TEST(HttpParserTest, OversizedBodyErrors) {
  HttpRequestParser parser(SmallLimits());
  EXPECT_EQ(parser.Feed("POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"),
            HttpRequestParser::State::kError);
}

TEST(HttpParserTest, ConnectionHeaderOverridesKeepAlive) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_FALSE(parser.TakeRequest().keep_alive);
  ASSERT_EQ(parser.Feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_TRUE(parser.TakeRequest().keep_alive);
}

TEST(HttpParserTest, MalformedQueryNumbersAreNullopt) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Feed("GET /q?k=abc&b=1.2.3 HTTP/1.1\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  const HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.QueryInt("k", 7), std::nullopt);     // present, bad
  EXPECT_EQ(request.QueryDouble("b", 7.0), std::nullopt);
  EXPECT_EQ(request.QueryInt("missing", 7), 7);          // absent: fallback
}

TEST(HttpParserTest, NonFiniteQueryDoublesAreNullopt) {
  // from_chars parses every one of these; a NaN would pass the routes'
  // range checks, so QueryDouble must refuse them all.
  for (const char* raw : {"nan", "NAN", "inf", "-inf", "infinity", "1e999"}) {
    HttpRequestParser parser;
    ASSERT_EQ(parser.Feed("GET /q?x=" + std::string(raw) +
                          "&y=0.25 HTTP/1.1\r\n\r\n"),
              HttpRequestParser::State::kComplete)
        << raw;
    const HttpRequest request = parser.TakeRequest();
    EXPECT_EQ(request.QueryDouble("x", 0.5), std::nullopt) << raw;
    EXPECT_EQ(request.QueryDouble("y", 0.5), 0.25) << raw;
  }
}

TEST(HttpResponseTest, SerializesStatusAndFraming) {
  HttpResponse response;
  response.status_code = 503;
  response.keep_alive = false;
  response.body = "{\"error\":\"overload\"}";
  const std::string wire = response.Serialize();
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 20\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"error\":\"overload\"}"),
            std::string::npos);
}

TEST(JsonWriterTest, NestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("items").BeginArray();
  w.BeginObject().Key("v").Int(-3).Key("c").Double(1.5).EndObject();
  w.Int(7);
  w.EndArray();
  w.Key("ok").Bool(true);
  w.Key("note").String("a\"b\\c\nd");
  w.Key("nothing").Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"items\":[{\"v\":-3,\"c\":1.5},7],\"ok\":true,"
            "\"note\":\"a\\\"b\\\\c\\nd\",\"nothing\":null}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(0.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,0.5]");
}

TEST(JsonWriterTest, ControlCharactersEscaped) {
  std::string out;
  JsonWriter::Escape(std::string_view("\x01\t", 2), out);
  EXPECT_EQ(out, "\\u0001\\t");
}

TEST(ParseValueArrayTest, AcceptsJsonArrayAndBareList) {
  const auto a = ParseValueArray("[1, 2, -3]");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.ValueOrDie(), (std::vector<Value>{1, 2, -3}));

  const auto b = ParseValueArray(" 4,5\n6 ");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.ValueOrDie(), (std::vector<Value>{4, 5, 6}));

  const auto empty = ParseValueArray("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.ValueOrDie().empty());

  const auto blank = ParseValueArray("   ");
  ASSERT_TRUE(blank.ok());
  EXPECT_TRUE(blank.ValueOrDie().empty());
}

TEST(ParseValueArrayTest, RejectsMalformedBodies) {
  EXPECT_FALSE(ParseValueArray("[1, 2").ok());       // unterminated
  EXPECT_FALSE(ParseValueArray("1] 2").ok());        // stray bracket
  EXPECT_FALSE(ParseValueArray("[1] trailing").ok());
  EXPECT_FALSE(ParseValueArray("[1, x]").ok());      // non-integer
  EXPECT_FALSE(ParseValueArray("{\"v\": 1}").ok());  // wrong shape
  EXPECT_FALSE(ParseValueArray("[99999999999999999999999]").ok());
}

}  // namespace
}  // namespace aqua
