// Pipelined requests on one keep-alive connection: the reactor answers
// every complete request a read delivered, buffers the inline responses on
// the connection and sends them with one write.  These tests pin the
// ordering and closing rules around that buffer: worker routes in the
// middle of a pipeline, a malformed request, Connection: close, and the
// size cap that splits a large pipeline into several writes.
//
// Suites are named Reactor* so the sanitizer and ThreadSanitizer CI jobs
// run them.

#include <poll.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "server/e2e_util.h"
#include "server/routes.h"
#include "server/server.h"
#include "server/serving_engine.h"

namespace aqua {
namespace {

using e2e::ConnectTo;
using e2e::FramedResponse;
using e2e::KeepAliveRequest;
using e2e::ReadOneResponse;
using e2e::SendRaw;

/// True when the peer closes the connection with nothing more to read.
bool ReadsEof(int fd, const std::string& carry) {
  if (!carry.empty()) return false;
  struct pollfd pfd = {fd, POLLIN, 0};
  if (poll(&pfd, 1, 15000) <= 0) return false;
  char byte;
  return read(fd, &byte, 1) == 0;
}

TEST(ReactorPipelineTest, MixedRoutesAnswerInRequestOrder) {
  // Any op stales the epoch, so the hot list read after the ingest must
  // see the ingested values: the third response proves the reactor waited
  // for the worker before it served the request behind it.
  ServingEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.cache_max_stale_ops = 1;
  ServingEngine engine(engine_options);
  HttpServerOptions options;
  options.reactors = 1;
  options.workers = 1;
  HttpServer server(options);
  RegisterServingRoutes(server, engine);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  SendRaw(fd, KeepAliveRequest("GET", "/frequency?value=7") +
                  KeepAliveRequest("POST", "/ingest", "", "[7,7,7]") +
                  KeepAliveRequest("GET", "/hotlist?k=1"));
  std::string carry;
  const FramedResponse frequency = ReadOneResponse(fd, &carry);
  const FramedResponse ingest = ReadOneResponse(fd, &carry);
  const FramedResponse hotlist = ReadOneResponse(fd, &carry);
  close(fd);

  ASSERT_TRUE(frequency.ok && ingest.ok && hotlist.ok);
  EXPECT_EQ(frequency.status, 200);
  EXPECT_NE(frequency.body.find("\"estimate\":0"), std::string::npos)
      << frequency.body;
  EXPECT_EQ(ingest.status, 200);
  EXPECT_NE(ingest.body.find("\"ingested\":3"), std::string::npos)
      << ingest.body;
  EXPECT_EQ(hotlist.status, 200);
  EXPECT_NE(hotlist.body.find("\"value\":7"), std::string::npos)
      << hotlist.body;
  EXPECT_TRUE(carry.empty());
  server.Shutdown();
}

/// A started one-reactor server whose inline /echo route answers its `i`
/// parameter.
std::unique_ptr<HttpServer> EchoServer() {
  HttpServerOptions options;
  options.reactors = 1;
  options.workers = 1;
  auto server = std::make_unique<HttpServer>(options);
  server->Route("GET", "/echo",
                [](const HttpRequest& request, HttpResponse* response) {
                  response->body.append(
                      request.QueryParam("i").value_or("none"));
                });
  EXPECT_TRUE(server->Start().ok());
  return server;
}

TEST(ReactorPipelineTest, MalformedThirdRequestGetsA400AfterTwoAnswers) {
  const std::unique_ptr<HttpServer> server = EchoServer();
  const int fd = ConnectTo(server->port());
  SendRaw(fd, KeepAliveRequest("GET", "/echo?i=1") +
                  KeepAliveRequest("GET", "/echo?i=2") +
                  "GET /echo?i=3 HTTP/9.9\r\nHost: t\r\n\r\n");
  std::string carry;
  const FramedResponse first = ReadOneResponse(fd, &carry);
  const FramedResponse second = ReadOneResponse(fd, &carry);
  const FramedResponse bad = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(first.ok && second.ok && bad.ok);
  EXPECT_EQ(first.body, "1");
  EXPECT_EQ(second.body, "2");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.wire.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(ReadsEof(fd, carry));
  close(fd);
  EXPECT_EQ(server->Stats().bad_requests, 1);
  server->Shutdown();
}

TEST(ReactorPipelineTest, ConnectionCloseOnTheSecondOfThreeEndsAfterIt) {
  const std::unique_ptr<HttpServer> server = EchoServer();
  const int fd = ConnectTo(server->port());
  SendRaw(fd, KeepAliveRequest("GET", "/echo?i=1") +
                  KeepAliveRequest("GET", "/echo?i=2",
                                   "Connection: close\r\n") +
                  KeepAliveRequest("GET", "/echo?i=3"));
  std::string carry;
  const FramedResponse first = ReadOneResponse(fd, &carry);
  const FramedResponse second = ReadOneResponse(fd, &carry);
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_EQ(first.body, "1");
  EXPECT_EQ(second.body, "2");
  EXPECT_NE(second.wire.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(ReadsEof(fd, carry));
  close(fd);
  server->Shutdown();
}

TEST(ReactorPipelineTest, OutputPastTheCapGoesOutInMoreThanOneWrite) {
  HttpServerOptions options;
  options.reactors = 1;
  options.workers = 1;
  HttpServer server(options);
  // ~8 KB per response: twenty of them are well past the 64 KiB cap.
  server.Route("GET", "/page",
               [](const HttpRequest& request, HttpResponse* response) {
                 response->body.append(
                     request.QueryParam("i").value_or("none"));
                 response->body.append(8 * 1024, '.');
               });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kDepth = 20;
  std::string burst;
  for (int i = 0; i < kDepth; ++i) {
    burst += KeepAliveRequest("GET", "/page?i=" + std::to_string(i));
  }
  const HttpServer::ServerStats before = server.Stats();
  const int fd = ConnectTo(server.port());
  SendRaw(fd, burst);
  std::string carry;
  for (int i = 0; i < kDepth; ++i) {
    const FramedResponse response = ReadOneResponse(fd, &carry);
    ASSERT_TRUE(response.ok) << "response " << i;
    EXPECT_EQ(response.body.substr(0, response.body.find('.')),
              std::to_string(i));
  }
  close(fd);
  server.Shutdown();

  const HttpServer::ServerStats after = server.Stats();
  const std::int64_t sends =
      (after.io.direct_sends - before.io.direct_sends) +
      (after.io.copied_sends - before.io.copied_sends);
  EXPECT_GE(sends, 2);
  // Every response either opened a write or shared one.
  EXPECT_EQ(sends + after.io.coalesced_responses -
                before.io.coalesced_responses,
            kDepth);
}

}  // namespace
}  // namespace aqua
