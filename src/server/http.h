#ifndef AQUA_SERVER_HTTP_H_
#define AQUA_SERVER_HTTP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aqua {

/// One decoded key=value pair viewed inside parser-owned storage.
struct QueryParamView {
  std::string_view key;
  std::string_view value;
};

/// One header field viewed inside parser-owned storage.
struct HeaderView {
  std::string_view key;
  std::string_view value;
};

/// One parsed HTTP/1.1 request.
///
/// Every field is a view into storage owned by the HttpRequestParser that
/// produced it: the raw connection buffer (method, header fields, body) and
/// the parser's percent-decode arena (path, query pairs).  Copying an
/// HttpRequest copies the views, never the bytes, so handing a request to a
/// worker thread is a fixed-size memcpy with zero allocations.  The views
/// stay valid until the parser's next Feed or Reparse call — examine or
/// deep-copy the request before pumping the parser again.
struct HttpRequest {
  /// Fixed slot counts: requests carrying more query parameters or header
  /// fields than this are rejected as malformed (kError) rather than
  /// spilling to the heap.  Generous for an AQP endpoint whose busiest
  /// route takes three parameters.
  static constexpr std::size_t kMaxQueryParams = 16;
  static constexpr std::size_t kMaxHeaders = 32;

  std::string_view method;
  /// Path component of the request target (before '?'), percent-decoded.
  std::string_view path;
  /// Decoded key=value pairs from the query string, in request order.
  /// The parser is the ONE place the query string is split and
  /// percent-decoded, so every route handler sees the same decode;
  /// duplicate keys are kept in order and QueryParam returns the first
  /// (first-wins, matching the typed accessors below).
  QueryParamView query[kMaxQueryParams];
  std::size_t query_count = 0;
  HeaderView headers[kMaxHeaders];
  std::size_t header_count = 0;
  std::string_view body;
  bool keep_alive = true;

  /// First query parameter named `name` (decoded), if present.
  std::optional<std::string_view> QueryParam(std::string_view name) const;
  /// Typed accessors: the fallback is returned when the parameter is
  /// absent; std::nullopt is returned when it is present but malformed
  /// (callers turn that into a 400).  QueryDouble counts NaN and the
  /// infinities as malformed.
  std::optional<std::int64_t> QueryInt(std::string_view name,
                                       std::int64_t fallback) const;
  std::optional<double> QueryDouble(std::string_view name,
                                    double fallback) const;
  /// First header named `name` (case-insensitive), if present.
  std::optional<std::string_view> Header(std::string_view name) const;

  /// True when a Cache-Control header lists the no-cache directive — the
  /// client is asking for a freshly computed answer, so the response cache
  /// must be bypassed for this request.
  bool NoCache() const;

  /// Appends the canonical query-string form to *out: pairs sorted by key
  /// (stable, so duplicate keys keep their request order and first-wins
  /// semantics survive the reordering), each key and value re-encoded with
  /// a fixed percent-escape alphabet.  Two requests canonicalize equal iff
  /// every handler observes them identically through QueryParam/QueryInt/
  /// QueryDouble — this is the form the response cache keys on.  `scratch`
  /// holds sort indices and keeps its capacity across calls so a warmed
  /// caller appends without allocating.
  void AppendCanonicalQuery(std::string* out,
                            std::vector<std::uint32_t>* scratch) const;

  /// Allocating convenience form of AppendCanonicalQuery.
  std::string CanonicalQuery() const;
};

/// One HTTP response about to be serialized.
///
/// Designed for reuse: a reactor keeps one HttpResponse as scratch and
/// Reset()s it per request, so body/content_type keep their capacity and a
/// warmed serving loop renders without touching the allocator.
struct HttpResponse {
  int status_code = 200;
  std::string content_type = "application/json";
  std::string body;
  bool keep_alive = true;

  /// Restores defaults while keeping string capacity (clear, not shrink).
  void Reset();

  /// Appends the head (status line + headers + blank line, no body) to
  /// *out.  The caller sends head and body as two iovecs — the wire bytes
  /// are identical to Serialize() without ever concatenating them.
  void SerializeHeadInto(std::string* out) const;

  /// Full wire form: status line, headers (Content-Length, Content-Type,
  /// Connection), blank line, body.  Allocating convenience used by the
  /// response cache when pinning an entry and by tests.
  std::string Serialize() const;
};

/// Canonical reason phrase for the status codes the server emits.
std::string_view HttpStatusText(int code);

/// Incremental HTTP/1.1 request parser: feed raw bytes as they arrive on
/// the socket; when a full request (headers + declared body) is buffered,
/// state() turns kComplete and TakeRequest() yields it, retaining any
/// pipelined leftover bytes for the next request.  Malformed or oversized
/// input turns the state kError with a human-readable reason; the
/// connection should answer 400 and close.
///
/// Allocation discipline: the connection buffer and the percent-decode
/// arena are the only storage, and both retain capacity across requests.
/// Completed-request bytes are consumed lazily — TakeRequest just records
/// the prefix length, and the next TryParse compacts the buffer in place —
/// so a warmed keep-alive connection parses every subsequent request with
/// zero allocations.  The produced HttpRequest views that storage (see
/// HttpRequest), valid until the next Feed/Reparse.
///
/// Scope (what an AQP serving endpoint needs, nothing more): GET/POST with
/// Content-Length bodies.  No chunked transfer-encoding (411 upstream), no
/// multiline header folding (rejected), no trailers.
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  struct Limits {
    std::size_t max_header_bytes = 16 * 1024;
    std::size_t max_body_bytes = 8 * 1024 * 1024;
  };

  HttpRequestParser() = default;
  explicit HttpRequestParser(const Limits& limits) : limits_(limits) {}

  /// Appends bytes and attempts to complete a request.  Returns the state
  /// after consuming them (kComplete leaves further pipelined bytes
  /// buffered).  Invalidates views of any previously returned request.
  State Feed(std::string_view bytes);

  /// Attempts to parse a complete request out of already-buffered bytes
  /// (used after TakeRequest to surface pipelined requests without a read).
  /// Invalidates views of any previously returned request.
  State Reparse();

  State state() const { return state_; }
  const std::string& error() const { return error_; }

  /// The completed request without taking it: the state stays kComplete,
  /// so a caller can look at its route before deciding to TakeRequest().
  /// Only valid in kComplete.
  const HttpRequest& PeekRequest() const { return request_; }

  /// Returns the completed request (a fixed-size copy of the views) and
  /// resets to parse the next one.  Only valid in kComplete.  The views
  /// stay valid until the next Feed/Reparse on this parser.
  HttpRequest TakeRequest();

  /// Bytes buffered but not yet consumed by a completed request.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  /// Percent-decodes `in` (+ is *not* treated as space; targets only), or
  /// returns std::nullopt on malformed escapes.
  static std::optional<std::string> PercentDecode(std::string_view in);

 private:
  State Fail(std::string reason);
  State TryParse();
  /// Percent-decodes `in` by appending to arena_; returns a view of the
  /// appended region, or std::nullopt on malformed escapes.  arena_ is
  /// reserved to max_header_bytes up front and decoding never expands its
  /// input, so appends never reallocate and earlier views stay valid.
  std::optional<std::string_view> DecodeIntoArena(std::string_view in);

  Limits limits_;
  std::string buffer_;
  /// Prefix of buffer_ already consumed by completed requests; compacted
  /// away at the start of the next TryParse (views are dead by then).
  std::size_t consumed_ = 0;
  /// Decoded path and query bytes for the current request.
  std::string arena_;
  HttpRequest request_;
  State state_ = State::kNeedMore;
  std::string error_;
};

}  // namespace aqua

#endif  // AQUA_SERVER_HTTP_H_
