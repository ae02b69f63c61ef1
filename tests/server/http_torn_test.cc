// Torn-read hardening for the incremental HTTP parser, plus conformance
// tests for the canonical query form and cache-control parsing the
// response cache depends on.
//
// The reactor feeds the parser whatever read() returned, so a pipelined
// request stream can be torn at ANY byte boundary — mid request-line, mid
// header name, mid percent-escape, mid body.  The sweep below replays one
// pipelined stream split at every boundary and asserts the parsed requests
// are identical to the unsplit parse, element for element.
//
// HttpRequest is a bundle of views into parser-owned storage, valid only
// until the parser's next Feed/Reparse — so the drain loop materializes
// each request into an OwnedRequest before pumping the parser again, and
// single-request helpers keep the parser alive alongside the views.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/http.h"

namespace aqua {
namespace {

/// Deep copy of one parsed request: owns every byte, so it survives the
/// parser moving on to the next pipelined request.
struct OwnedRequest {
  std::string method;
  std::string path;
  std::vector<std::pair<std::string, std::string>> query;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  explicit OwnedRequest(const HttpRequest& r)
      : method(r.method),
        path(r.path),
        body(r.body),
        keep_alive(r.keep_alive) {
    for (std::size_t i = 0; i < r.query_count; ++i) {
      query.emplace_back(std::string(r.query[i].key),
                         std::string(r.query[i].value));
    }
    for (std::size_t i = 0; i < r.header_count; ++i) {
      headers.emplace_back(std::string(r.headers[i].key),
                           std::string(r.headers[i].value));
    }
  }

  std::optional<std::string_view> QueryParam(std::string_view name) const {
    for (const auto& [key, value] : query) {
      if (key == name) return std::string_view(value);
    }
    return std::nullopt;
  }
};

/// Feeds `stream` to a fresh parser and drains every complete request.
/// The parser must never error and must end in kNeedMore with no buffered
/// leftovers.
std::vector<OwnedRequest> ParseAll(const std::vector<std::string>& chunks) {
  HttpRequestParser parser;
  std::vector<OwnedRequest> requests;
  for (const std::string& chunk : chunks) {
    auto state = parser.Feed(chunk);
    EXPECT_NE(state, HttpRequestParser::State::kError) << parser.error();
    while (parser.Reparse() == HttpRequestParser::State::kComplete) {
      requests.emplace_back(parser.TakeRequest());
    }
  }
  EXPECT_EQ(parser.state(), HttpRequestParser::State::kNeedMore);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  return requests;
}

void ExpectSameRequests(const std::vector<OwnedRequest>& got,
                        const std::vector<OwnedRequest>& want,
                        std::size_t split) {
  ASSERT_EQ(got.size(), want.size()) << "split at byte " << split;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].method, want[i].method) << "split " << split;
    EXPECT_EQ(got[i].path, want[i].path) << "split " << split;
    EXPECT_EQ(got[i].query, want[i].query) << "split " << split;
    EXPECT_EQ(got[i].headers, want[i].headers) << "split " << split;
    EXPECT_EQ(got[i].body, want[i].body) << "split " << split;
    EXPECT_EQ(got[i].keep_alive, want[i].keep_alive) << "split " << split;
  }
}

TEST(HttpTornReadTest, PipelinedStreamSplitAtEveryByteBoundary) {
  // Three pipelined requests exercising a query string with escapes, a
  // POST body, and a closing request.
  const std::string stream =
      "GET /hotlist?k=10&beta=3.5&tag=a%20b HTTP/1.1\r\n"
      "Host: t\r\n\r\n"
      "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n"
      "[1,2,300]"
      "GET /frequency?value=42 HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n";

  const std::vector<OwnedRequest> want = ParseAll({stream});
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(want[0].path, "/hotlist");
  EXPECT_EQ(want[0].QueryParam("tag"), "a b");
  EXPECT_EQ(want[1].body, "[1,2,300]");
  EXPECT_FALSE(want[2].keep_alive);

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    const std::vector<OwnedRequest> got =
        ParseAll({stream.substr(0, split), stream.substr(split)});
    ExpectSameRequests(got, want, split);
  }
}

TEST(HttpTornReadTest, ThreeWaySplitsAcrossRequestBoundaries) {
  const std::string stream =
      "GET /a?x=1 HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /b?y=2 HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::vector<OwnedRequest> want = ParseAll({stream});
  ASSERT_EQ(want.size(), 2u);
  // Every ordered pair of split points (coarser than the full sweep, but
  // covers chunk boundaries landing inside both requests at once).
  for (std::size_t a = 0; a <= stream.size(); a += 3) {
    for (std::size_t b = a; b <= stream.size(); b += 3) {
      const std::vector<OwnedRequest> got = ParseAll(
          {stream.substr(0, a), stream.substr(a, b - a), stream.substr(b)});
      ExpectSameRequests(got, want, a * 1000 + b);
    }
  }
}

TEST(HttpTornReadTest, OverflowingFixedSlotsIsMalformed) {
  // The fixed view arrays reject rather than truncate: one parameter or
  // header too many must turn the request into a 400, never silently drop
  // a pair a handler (or the cache key) would have seen.
  std::string many_params = "GET /q?";
  for (std::size_t i = 0; i <= HttpRequest::kMaxQueryParams; ++i) {
    if (i > 0) many_params.push_back('&');
    many_params.append("k").append(std::to_string(i)).append("=1");
  }
  many_params += " HTTP/1.1\r\nHost: t\r\n\r\n";
  HttpRequestParser p1;
  EXPECT_EQ(p1.Feed(many_params), HttpRequestParser::State::kError);

  std::string many_headers = "GET / HTTP/1.1\r\n";
  for (std::size_t i = 0; i <= HttpRequest::kMaxHeaders; ++i) {
    many_headers += "X-H" + std::to_string(i) + ": v\r\n";
  }
  many_headers += "\r\n";
  HttpRequestParser p2;
  EXPECT_EQ(p2.Feed(many_headers), HttpRequestParser::State::kError);

  // Exactly at the limit still parses.
  std::string at_limit = "GET /q?";
  for (std::size_t i = 0; i < HttpRequest::kMaxQueryParams; ++i) {
    if (i > 0) at_limit.push_back('&');
    at_limit.append("k").append(std::to_string(i)).append("=1");
  }
  at_limit += " HTTP/1.1\r\nHost: t\r\n\r\n";
  HttpRequestParser p3;
  EXPECT_EQ(p3.Feed(at_limit), HttpRequestParser::State::kComplete);
  EXPECT_EQ(p3.TakeRequest().query_count, HttpRequest::kMaxQueryParams);
}

TEST(HttpKeepAliveTest, VersionDefaultsAndConnectionOverrides) {
  struct Case {
    const char* request;
    bool want_keep_alive;
  };
  const Case cases[] = {
      // HTTP/1.1 defaults to keep-alive.
      {"GET / HTTP/1.1\r\nHost: t\r\n\r\n", true},
      // HTTP/1.0 defaults to close.
      {"GET / HTTP/1.0\r\nHost: t\r\n\r\n", false},
      // Connection: close overrides the 1.1 default.
      {"GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", false},
      // Connection: keep-alive revives a 1.0 connection.
      {"GET / HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n", true},
      // Case-insensitive header name and value.
      {"GET / HTTP/1.1\r\nhost: t\r\nCONNECTION: Close\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpRequestParser parser;
    ASSERT_EQ(parser.Feed(c.request), HttpRequestParser::State::kComplete)
        << c.request;
    EXPECT_EQ(parser.TakeRequest().keep_alive, c.want_keep_alive)
        << c.request;
  }
}

TEST(HttpKeepAliveTest, ResponseEchoesNegotiatedConnection) {
  HttpResponse keep;
  keep.keep_alive = true;
  EXPECT_NE(keep.Serialize().find("Connection: keep-alive"),
            std::string::npos);
  HttpResponse close_it;
  close_it.keep_alive = false;
  EXPECT_NE(close_it.Serialize().find("Connection: close"),
            std::string::npos);
}

/// Parses one request and keeps the parser (the storage behind the views)
/// alive for as long as the request is examined.
class ParsedRequest {
 public:
  explicit ParsedRequest(const std::string& wire) {
    EXPECT_EQ(parser_.Feed(wire), HttpRequestParser::State::kComplete);
    request_ = parser_.TakeRequest();
  }
  ParsedRequest(const ParsedRequest&) = delete;
  ParsedRequest& operator=(const ParsedRequest&) = delete;

  const HttpRequest* operator->() const { return &request_; }
  const HttpRequest& get() const { return request_; }

 private:
  HttpRequestParser parser_;
  HttpRequest request_;
};

TEST(CanonicalQueryTest, SortsByKeyAndReencodes) {
  const ParsedRequest request(
      "GET /q?b=2&a=1&c=a%20b HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(request->CanonicalQuery(), "a=1&b=2&c=a%20b");
}

TEST(CanonicalQueryTest, ParameterOrderDoesNotMatter) {
  const ParsedRequest x("GET /q?k=10&beta=3 HTTP/1.1\r\nHost: t\r\n\r\n");
  const ParsedRequest y("GET /q?beta=3&k=10 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(x->CanonicalQuery(), y->CanonicalQuery());
}

TEST(CanonicalQueryTest, EscapingVariantsCanonicalizeEqual) {
  // %34%32 is "42" — the decoded parameters are identical, so the
  // canonical forms must be too (the cache must not double-count them).
  const ParsedRequest plain("GET /q?value=42 HTTP/1.1\r\nHost: t\r\n\r\n");
  const ParsedRequest escaped(
      "GET /q?value=%34%32 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(plain->CanonicalQuery(), escaped->CanonicalQuery());
}

TEST(CanonicalQueryTest, DuplicateKeysKeepRequestOrder) {
  // First-wins semantics must survive the stable sort: the first `k` stays
  // first in the canonical form.
  const ParsedRequest request(
      "GET /q?k=1&a=0&k=2 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(request->CanonicalQuery(), "a=0&k=1&k=2");
  EXPECT_EQ(request->QueryParam("k"), "1");
}

TEST(CanonicalQueryTest, ReservedBytesArePercentEncoded) {
  const ParsedRequest request(
      "GET /q?expr=a%2Bb%3Dc HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(request->CanonicalQuery(), "expr=a%2Bb%3Dc");
}

TEST(CanonicalQueryTest, EmptyQueryCanonicalizesEmpty) {
  const ParsedRequest request("GET /distinct HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(request->CanonicalQuery(), "");
}

TEST(NoCacheTest, DirectiveDetection) {
  struct Case {
    const char* headers;
    bool want;
  };
  const Case cases[] = {
      {"", false},
      {"Cache-Control: no-cache\r\n", true},
      {"Cache-Control: No-Cache\r\n", true},
      {"Cache-Control: max-age=0, no-cache\r\n", true},
      {"Cache-Control: no-cache , private\r\n", true},
      // Substrings of other directives must not match.
      {"Cache-Control: no-cache-similar\r\n", false},
      {"Cache-Control: max-age=60\r\n", false},
      {"X-Cache-Control: no-cache\r\n", false},
  };
  for (const Case& c : cases) {
    const ParsedRequest request(
        std::string("GET / HTTP/1.1\r\nHost: t\r\n") + c.headers + "\r\n");
    EXPECT_EQ(request->NoCache(), c.want) << c.headers;
  }
}

}  // namespace
}  // namespace aqua
