#include "server/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace aqua {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends `in` with every byte outside the unreserved alphabet
/// (RFC 3986 §2.3) percent-encoded, so canonical keys are unambiguous
/// regardless of how the client escaped them.
void AppendPercentEncoded(std::string_view in, std::string& out) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char c : in) {
    const auto u = static_cast<unsigned char>(c);
    if ((u >= 'A' && u <= 'Z') || (u >= 'a' && u <= 'z') ||
        (u >= '0' && u <= '9') || u == '-' || u == '.' || u == '_' ||
        u == '~') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    }
  }
}

/// Appends the decimal form of `v` without a std::to_string temporary.
void AppendUint(std::uint64_t v, std::string& out) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, ptr);
}

}  // namespace

std::optional<std::string_view> HttpRequest::QueryParam(
    std::string_view name) const {
  for (std::size_t i = 0; i < query_count; ++i) {
    if (query[i].key == name) return query[i].value;
  }
  return std::nullopt;
}

std::optional<std::int64_t> HttpRequest::QueryInt(
    std::string_view name, std::int64_t fallback) const {
  const auto raw = QueryParam(name);
  if (!raw.has_value()) return fallback;
  std::int64_t value = 0;
  const char* begin = raw->data();
  const char* end = begin + raw->size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || raw->empty()) return std::nullopt;
  return value;
}

std::optional<double> HttpRequest::QueryDouble(std::string_view name,
                                               double fallback) const {
  const auto raw = QueryParam(name);
  if (!raw.has_value()) return fallback;
  double value = 0.0;
  const char* begin = raw->data();
  const char* end = begin + raw->size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  // from_chars accepts "nan" and "inf"; no parameter means either, and a
  // NaN slips past every range check a route makes.
  if (ec != std::errc() || ptr != end || raw->empty() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::string_view> HttpRequest::Header(
    std::string_view name) const {
  for (std::size_t i = 0; i < header_count; ++i) {
    if (EqualsIgnoreCase(headers[i].key, name)) return headers[i].value;
  }
  return std::nullopt;
}

bool HttpRequest::NoCache() const {
  const auto value = Header("Cache-Control");
  if (!value.has_value()) return false;
  // Directive scan over a comma-separated list; "no-cache" must be a whole
  // directive, not a substring of another one.
  std::string_view rest = *value;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view directive = Trim(rest.substr(0, comma));
    if (EqualsIgnoreCase(directive, "no-cache")) return true;
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  return false;
}

void HttpRequest::AppendCanonicalQuery(
    std::string* out, std::vector<std::uint32_t>* scratch) const {
  scratch->clear();
  for (std::uint32_t i = 0; i < query_count; ++i) scratch->push_back(i);
  // Insertion sort by key, stable: duplicate keys stay in request order so
  // the canonical form preserves the parser's first-wins semantics.
  for (std::size_t i = 1; i < scratch->size(); ++i) {
    const std::uint32_t idx = (*scratch)[i];
    std::size_t j = i;
    while (j > 0 && query[(*scratch)[j - 1]].key > query[idx].key) {
      (*scratch)[j] = (*scratch)[j - 1];
      --j;
    }
    (*scratch)[j] = idx;
  }
  bool first = true;
  for (const std::uint32_t idx : *scratch) {
    if (!first) out->push_back('&');
    first = false;
    AppendPercentEncoded(query[idx].key, *out);
    out->push_back('=');
    AppendPercentEncoded(query[idx].value, *out);
  }
}

std::string HttpRequest::CanonicalQuery() const {
  std::string out;
  std::vector<std::uint32_t> scratch;
  AppendCanonicalQuery(&out, &scratch);
  return out;
}

std::string_view HttpStatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 411:
      return "Length Required";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

void HttpResponse::Reset() {
  status_code = 200;
  content_type.assign("application/json");
  body.clear();
  keep_alive = true;
}

void HttpResponse::SerializeHeadInto(std::string* out) const {
  out->append("HTTP/1.1 ");
  AppendUint(static_cast<std::uint64_t>(status_code), *out);
  out->push_back(' ');
  out->append(HttpStatusText(status_code));
  out->append("\r\nContent-Type: ");
  out->append(content_type);
  out->append("\r\nContent-Length: ");
  AppendUint(body.size(), *out);
  out->append("\r\nConnection: ");
  out->append(keep_alive ? "keep-alive" : "close");
  out->append("\r\n\r\n");
}

std::string HttpResponse::Serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  SerializeHeadInto(&out);
  out.append(body);
  return out;
}

std::optional<std::string> HttpRequestParser::PercentDecode(
    std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out.push_back(in[i]);
      continue;
    }
    if (i + 2 >= in.size()) return std::nullopt;
    const int hi = HexDigit(in[i + 1]);
    const int lo = HexDigit(in[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

std::optional<std::string_view> HttpRequestParser::DecodeIntoArena(
    std::string_view in) {
  const std::size_t start = arena_.size();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      arena_.push_back(in[i]);
      continue;
    }
    if (i + 2 >= in.size()) return std::nullopt;
    const int hi = HexDigit(in[i + 1]);
    const int lo = HexDigit(in[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    arena_.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return std::string_view(arena_.data() + start, arena_.size() - start);
}

HttpRequestParser::State HttpRequestParser::Fail(std::string reason) {
  state_ = State::kError;
  error_ = std::move(reason);
  return state_;
}

HttpRequestParser::State HttpRequestParser::Feed(std::string_view bytes) {
  if (state_ == State::kError) return state_;
  buffer_.append(bytes);
  if (state_ == State::kComplete) return state_;  // pipelined backlog
  return TryParse();
}

HttpRequestParser::State HttpRequestParser::Reparse() {
  if (state_ != State::kNeedMore) return state_;
  return TryParse();
}

HttpRequestParser::State HttpRequestParser::TryParse() {
  // Compact away the previous request's bytes now, not at TakeRequest:
  // TryParse is only reachable in kNeedMore, after the previous request's
  // views are dead by contract, and erase-from-front reuses the buffer's
  // existing capacity.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  // One-time arena sizing: decoding never expands its input and the input
  // is capped at max_header_bytes, so after this reserve the arena never
  // reallocates and decoded views stay stable while we append.
  arena_.clear();
  if (arena_.capacity() < limits_.max_header_bytes) {
    arena_.reserve(limits_.max_header_bytes);
  }

  const std::size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > limits_.max_header_bytes) {
      return Fail("request header section exceeds limit");
    }
    return state_ = State::kNeedMore;
  }
  if (header_end > limits_.max_header_bytes) {
    return Fail("request header section exceeds limit");
  }

  const std::string_view head(buffer_.data(), header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Fail("malformed request line");
  }
  HttpRequest request;
  request.method = request_line.substr(0, sp1);
  const std::string_view target =
      request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (request.method.empty() || target.empty()) {
    return Fail("empty method or target");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Fail("unsupported HTTP version");
  }
  request.keep_alive = (version == "HTTP/1.1");

  // Split target into path and query string; decode both into the arena.
  const std::size_t qmark = target.find('?');
  const std::string_view raw_path = target.substr(0, qmark);
  const auto decoded_path = DecodeIntoArena(raw_path);
  if (!decoded_path.has_value()) return Fail("malformed percent-escape");
  request.path = *decoded_path;
  if (qmark != std::string_view::npos) {
    std::string_view qs = target.substr(qmark + 1);
    while (!qs.empty()) {
      const std::size_t amp = qs.find('&');
      const std::string_view pair = qs.substr(0, amp);
      if (!pair.empty()) {
        if (request.query_count >= HttpRequest::kMaxQueryParams) {
          return Fail("too many query parameters");
        }
        const std::size_t eq = pair.find('=');
        const auto key = DecodeIntoArena(pair.substr(0, eq));
        const auto value = DecodeIntoArena(
            eq == std::string_view::npos ? std::string_view()
                                         : pair.substr(eq + 1));
        if (!key.has_value() || !value.has_value()) {
          return Fail("malformed percent-escape in query");
        }
        request.query[request.query_count++] = {*key, *value};
      }
      if (amp == std::string_view::npos) break;
      qs = qs.substr(amp + 1);
    }
  }

  // Header fields.
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  std::uint64_t content_length = 0;
  bool saw_content_length = false;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      return Fail("obsolete header folding rejected");
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Fail("malformed header field");
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = Trim(line.substr(colon + 1));
    if (EqualsIgnoreCase(name, "Content-Length")) {
      const auto [ptr, ec] = std::from_chars(
          value.data(), value.data() + value.size(), content_length);
      if (ec != std::errc() || ptr != value.data() + value.size() ||
          value.empty()) {
        return Fail("malformed Content-Length");
      }
      saw_content_length = true;
    } else if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
      return Fail("chunked transfer-encoding not supported");
    } else if (EqualsIgnoreCase(name, "Connection")) {
      if (EqualsIgnoreCase(value, "close")) request.keep_alive = false;
      if (EqualsIgnoreCase(value, "keep-alive")) request.keep_alive = true;
    }
    if (request.header_count >= HttpRequest::kMaxHeaders) {
      return Fail("too many header fields");
    }
    request.headers[request.header_count++] = {name, value};
  }

  if (saw_content_length && content_length > limits_.max_body_bytes) {
    return Fail("request body exceeds limit");
  }
  const std::size_t body_start = header_end + 4;
  const std::size_t body_bytes = saw_content_length
                                     ? static_cast<std::size_t>(content_length)
                                     : 0;
  if (buffer_.size() - body_start < body_bytes) {
    return state_ = State::kNeedMore;
  }
  request.body = std::string_view(buffer_.data() + body_start, body_bytes);
  consumed_ = body_start + body_bytes;
  request_ = request;
  return state_ = State::kComplete;
}

HttpRequest HttpRequestParser::TakeRequest() {
  HttpRequest out = request_;
  request_ = HttpRequest{};
  state_ = State::kNeedMore;
  return out;
}

}  // namespace aqua
