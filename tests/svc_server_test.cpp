// In-process tests for the ctaverd daemon (src/svc/server + client): the
// wire protocol over a real AF_UNIX socket, progressive verdict streaming
// with lines byte-identical to `ctaver verify`, cache-hit provenance on
// resubmission, inline-text submissions of edited specs, concurrent
// submissions (the TSan leg's target), clean shutdown drains, and the JSON
// parser doubling as the validity oracle for the metrics serializer.
// Plus the wire-hardening corpus (ISSUE 10): oversized / malformed /
// binary / torn frames, chunked partial writes, mid-frame disconnects,
// read deadlines — and the hardened client's connect/io timeouts and
// capped-backoff retries.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "frontend/registry.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/server.h"
#include "verify/pipeline.h"

namespace ctaver::svc {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/ctaver_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Disposable cache directory for the journal-backed daemon tests.
class TmpCacheDir {
 public:
  TmpCacheDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("ctaver_svc_cache_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TmpCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static int counter_;
  std::filesystem::path path_;
};
int TmpCacheDir::counter_ = 0;

/// A running daemon on its own thread, torn down via stop() + join.
class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions opts = {}) {
    opts.socket_path = unique_socket_path();
    socket_path_ = opts.socket_path;
    server_ = std::make_unique<Server>(std::move(opts));
    std::string err;
    started_ = server_->start(&err);
    EXPECT_TRUE(started_) << err;
    if (started_) thread_ = std::thread([this] { server_->run(); });
  }
  ~ServerFixture() {
    server_->stop();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
  [[nodiscard]] Server& server() { return *server_; }
  /// Blocks until run() returns (for shutdown-drain tests).
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  bool started_ = false;
};

/// Raw line-oriented test client (the event-level view the svc::client
/// functions summarize away).
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (fd_ < 0) return;
    int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    EXPECT_EQ(rc, 0) << socket_path << ": " << std::strerror(errno);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& line) { send_raw(line + "\n"); }

  /// Exact bytes, no terminator added — partial frames, chunk dribbles.
  void send_raw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// True when the server closed its side (and nothing is left buffered).
  bool eof() {
    if (!buf_.empty()) return false;
    char ch;
    return ::recv(fd_, &ch, 1, 0) == 0;
  }

  /// Next event line, parsed. Fails the test on EOF or invalid JSON.
  Json next() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while waiting for an event";
        return Json();
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return Json::parse(line);
  }

  /// Collects one submission's event stream: every obligation event up to
  /// and including the done event.
  std::vector<Json> submit(const std::string& request) {
    send(request);
    std::vector<Json> events;
    for (;;) {
      Json ev = next();
      if (ev.is_null()) break;  // connection error already reported
      events.push_back(ev);
      if (events.back().get("event") == "done") break;
    }
    return events;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

TEST(SvcJson, ParsesTheWireShapes) {
  Json v = Json::parse(
      R"({"event":"obligation","nschemas":42,"cached":true,)"
      R"("line":"Inv1(v=0): FAIL [parametric] 4 schemas",)"
      R"("nested":{"a":[1,2.5,-3],"b":null},"esc":"a\"b\\c\nA"})");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.get("event"), "obligation");
  EXPECT_EQ(v["nschemas"].as_int(), 42);
  EXPECT_TRUE(v["cached"].as_bool());
  EXPECT_EQ(v["nested"]["a"].size(), 3u);
  EXPECT_EQ(v["nested"]["a"].at(1).as_number(), 2.5);
  EXPECT_TRUE(v["nested"]["b"].is_null());
  EXPECT_EQ(v["esc"].as_string(), "a\"b\\c\nA");
  EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,2] trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

// The satellite contract for --metrics-json: the registry's JSON dump must
// be valid JSON with the expected sections — the parser is the oracle.
TEST(SvcJson, MetricsSnapshotSerializesToValidJson) {
  obs::Registry::global().set_enabled(true);
  obs::add(obs::Counter::kCacheHits, 3);
  Json v = Json::parse(obs::Registry::global().snapshot().to_json());
  EXPECT_TRUE(v.is_object());
  EXPECT_TRUE(v["counters"].is_object());
  EXPECT_TRUE(v["gauges"].is_object());
  EXPECT_TRUE(v["histograms"].is_object());
  EXPECT_TRUE(v["per_thread"].is_array());
  EXPECT_GE(v["counters"]["cache.hits"].as_int(), 3);
}

TEST(SvcServer, PingStatsAndUnknownOp) {
  ServerFixture fx;
  RawClient c(fx.socket_path());
  c.send("{\"op\":\"ping\"}");
  EXPECT_EQ(c.next().get("event"), "pong");
  c.send("{\"op\":\"stats\"}");
  Json stats = c.next();
  EXPECT_EQ(stats.get("event"), "stats");
  EXPECT_EQ(stats["submissions"].as_int(), 0);
  EXPECT_TRUE(stats["cache"].is_object());
  // The embedded metrics dump is itself valid JSON.
  Json metrics = Json::parse(stats.get("metrics"));
  EXPECT_TRUE(metrics["counters"].is_object());
  c.send("{\"op\":\"nope\"}");
  EXPECT_EQ(c.next().get("event"), "error");
  c.send("not json at all");
  EXPECT_EQ(c.next().get("event"), "error");
}

TEST(SvcServer, SubmitStreamsVerdictLinesByteIdenticalToVerify) {
  ServerFixture fx;
  RawClient c(fx.socket_path());
  std::vector<Json> events =
      c.submit("{\"op\":\"submit\",\"spec\":\"NaiveVoting\"}");
  ASSERT_EQ(events.size(), 7u);  // 6 obligations + done
  EXPECT_EQ(events.back().get("event"), "done");
  EXPECT_EQ(events.back()["exit"].as_int(), 1);  // refuted warm-up protocol
  EXPECT_NE(events.back().get("row").find("NaiveVoting"), std::string::npos);

  // The daemon's lines are the CLI's lines: same renderer, same bytes.
  verify::ProtocolReport direct =
      verify::verify_protocol(
          frontend::ProtocolRegistry::with_builtins().make("NaiveVoting"), {});
  std::vector<std::string> expect_lines;
  for (const verify::PropertyResult* p :
       {&direct.agreement, &direct.validity, &direct.termination}) {
    for (const verify::Obligation& o : p->obligations) {
      expect_lines.push_back(verify::obligation_line(o));
    }
  }
  std::vector<std::string> got_lines;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].get("event"), "obligation");
    EXPECT_EQ(events[i].get("protocol"), "NaiveVoting");
    EXPECT_FALSE(events[i]["cached"].as_bool());
    got_lines.push_back(events[i].get("line"));
  }
  std::sort(expect_lines.begin(), expect_lines.end());
  std::sort(got_lines.begin(), got_lines.end());
  EXPECT_EQ(got_lines, expect_lines);

  // Verdict taxonomy: FAIL-with-CE is refuted, ok is verified.
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    const std::string line = events[i].get("line");
    if (line.find(": ok") != std::string::npos) {
      EXPECT_EQ(events[i].get("verdict"), "verified") << line;
    } else {
      EXPECT_EQ(events[i].get("verdict"), "refuted") << line;
    }
  }
}

TEST(SvcServer, ResubmissionReplaysFromTheCache) {
  ServerFixture fx;
  RawClient c(fx.socket_path());
  std::vector<Json> cold =
      c.submit("{\"op\":\"submit\",\"spec\":\"NaiveVoting\"}");
  std::vector<Json> warm =
      c.submit("{\"op\":\"submit\",\"spec\":\"NaiveVoting\"}");
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i + 1 < warm.size(); ++i) {
    EXPECT_FALSE(cold[i]["cached"].as_bool());
    EXPECT_TRUE(warm[i]["cached"].as_bool()) << warm[i].get("obligation");
    // Byte-identical replay: line, verdict, counts all match the cold run.
    EXPECT_EQ(warm[i].get("line"), cold[i].get("line"));
    EXPECT_EQ(warm[i].get("verdict"), cold[i].get("verdict"));
    EXPECT_EQ(warm[i]["nschemas"].as_int(), cold[i]["nschemas"].as_int());
  }
  EXPECT_EQ(warm.back()["exit"].as_int(), cold.back()["exit"].as_int());
  EXPECT_EQ(warm.back().get("row"), cold.back().get("row"));
  CacheStats stats = fx.server().cache().stats();
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.stores, 6u);
  EXPECT_EQ(fx.server().submissions(), 2u);
}

// The tentpole scenario end-to-end over the wire: submit a spec, edit its
// sweep instances, resubmit as inline text — only the sweep obligations
// re-prove; the parametric ones replay cached.
TEST(SvcServer, EditedResubmissionReprovesOnlyChangedObligations) {
  const std::string base = R"(protocol WireProbe {
  category B;
  parameters n, f;
  resilience n > 2*f;
  resilience f >= 0;
  counts processes = n - f, coins = 0;
  shared v0, v1;
  process {
    border   J0 : 0;
    border   J1 : 1;
    initial  I0 : 0;
    initial  I1 : 1;
    internal S;
    final    D0 : 0 decides;
    final    D1 : 1 decides;
    entry J0 -> I0;
    entry J1 -> I1;
    rule r1: I0 -> S do v0 += 1;
    rule r2: I1 -> S do v1 += 1;
    rule r3: S -> D0 when 2*v0 >= n - 2*f + 1;
    rule r4: S -> D1 when 2*v1 >= n - 2*f + 1;
    switch D0 -> J0;
    switch D1 -> J1;
  }
  sweep (3, 0), (4, 1);
}
)";
  std::string sweep_edit = base;
  sweep_edit.replace(sweep_edit.find("sweep (3, 0), (4, 1);"),
                     std::strlen("sweep (3, 0), (4, 1);"), "sweep (3, 0);");

  auto escape = [](const std::string& s) { return obs::json_escape(s); };
  ServerFixture fx;
  RawClient c(fx.socket_path());
  std::vector<Json> cold = c.submit(
      "{\"op\":\"submit\",\"text\":\"" + escape(base) +
      "\",\"name\":\"probe.cta\"}");
  ASSERT_EQ(cold.size(), 7u);
  std::vector<Json> warm = c.submit(
      "{\"op\":\"submit\",\"text\":\"" + escape(sweep_edit) +
      "\",\"name\":\"probe.cta\"}");
  ASSERT_EQ(warm.size(), 7u);
  for (std::size_t i = 0; i + 1 < warm.size(); ++i) {
    const bool parametric =
        warm[i].get("line").find("[parametric") != std::string::npos;
    EXPECT_EQ(warm[i]["cached"].as_bool(), parametric)
        << warm[i].get("obligation");
  }
  CacheStats stats = fx.server().cache().stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 8u);  // 6 cold + the 2 edited sweep keys
  EXPECT_EQ(stats.stores, 8u);
}

TEST(SvcServer, UsageErrorsGetErrorEventAndExit2) {
  ServerFixture fx;
  RawClient c(fx.socket_path());
  std::vector<Json> events =
      c.submit("{\"op\":\"submit\",\"spec\":\"NoSuchProtocol\"}");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].get("event"), "error");
  EXPECT_NE(events[0].get("message").find("NoSuchProtocol"),
            std::string::npos);
  EXPECT_EQ(events[1]["exit"].as_int(), 2);
  // A malformed inline spec is the same shape.
  std::vector<Json> bad =
      c.submit("{\"op\":\"submit\",\"text\":\"protocol Broken {\"}");
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_EQ(bad[0].get("event"), "error");
  EXPECT_EQ(bad[1]["exit"].as_int(), 2);
}

TEST(SvcServer, BlockingClientMatchesVerifyOutput) {
  ServerFixture fx;
  std::ostringstream out;
  std::ostringstream err;
  int code = submit_specs(fx.socket_path(), {"NaiveVoting"}, out, err);
  EXPECT_EQ(code, 1) << err.str();
  // Header + six indented obligation lines + the Table-II row.
  verify::ProtocolReport direct =
      verify::verify_protocol(
          frontend::ProtocolRegistry::with_builtins().make("NaiveVoting"), {});
  std::ostringstream expect;
  expect << "== NaiveVoting\n";
  for (const verify::PropertyResult* p :
       {&direct.agreement, &direct.validity, &direct.termination}) {
    for (const verify::Obligation& o : p->obligations) {
      expect << "    " << verify::obligation_line(o) << "\n";
    }
  }
  // The daemon streams per-obligation runs in canonical key order, which
  // interleaves properties differently from the per-property listing; the
  // byte-identity contract is per line, so compare the sorted line sets.
  // The client's last line is the untimed Table-II row that ends
  // report_text.
  auto lines = [](const std::string& s) {
    std::vector<std::string> v;
    std::istringstream is(s);
    std::string l;
    while (std::getline(is, l)) v.push_back(l);
    return v;
  };
  std::vector<std::string> got = lines(out.str());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), verify::table2_row(direct, /*timed=*/false));
  got.pop_back();
  std::vector<std::string> want = lines(expect.str());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  // Unknown protocol: exit 2 through the blocking client too.
  std::ostringstream out2, err2;
  EXPECT_EQ(submit_specs(fx.socket_path(), {"NoSuch"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("NoSuch"), std::string::npos);
}

TEST(SvcServer, ConcurrentSubmissionsShareThePoolAndCache) {
  ServeOptions so;
  so.verify.jobs = 4;
  ServerFixture fx(std::move(so));
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> codes(kClients, -1);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      std::ostringstream out, err;
      codes[i] = submit_specs(fx.socket_path(), {"NaiveVoting"}, out, err);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int code : codes) EXPECT_EQ(code, 1);
  EXPECT_EQ(fx.server().submissions(), static_cast<std::uint64_t>(kClients));
  // Every verdict beyond the first prover's is a hit or a racing store;
  // hits + stores covers all 4 * 6 obligation verdicts.
  CacheStats stats = fx.server().cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, 24u);
  EXPECT_GE(stats.stores, 6u);
}

TEST(SvcServer, ShutdownOpDrainsTheDaemon) {
  ServerFixture fx;
  {
    RawClient c(fx.socket_path());
    std::vector<Json> events =
        c.submit("{\"op\":\"submit\",\"spec\":\"NaiveVoting\"}");
    EXPECT_EQ(events.back().get("event"), "done");
  }
  EXPECT_EQ(request_shutdown(fx.socket_path(), std::cerr), 0);
  fx.join();  // run() returned: drained, socket unlinked
  EXPECT_NE(::access(fx.socket_path().c_str(), F_OK), 0);
}

// --- wire hardening (ISSUE 10): the fuzz corpus -------------------------
//
// Malformed, truncated, oversized, and binary frames; partial writes; and
// mid-frame disconnects. The contract everywhere: a structured error event
// (or a silent close for an unfinishable frame), never a hang, never
// unbounded buffering, and the connection/daemon stays serviceable.

TEST(SvcServer, OversizedFrameIsDroppedAndConnectionSurvives) {
  ServeOptions so;
  so.max_frame_bytes = 1024;  // tiny cap so the test frame is cheap
  ServerFixture fx(std::move(so));
  RawClient c(fx.socket_path());
  // 8 KiB of newline-free bytes: can never become a valid request. The
  // server must report once, bound its buffer, and keep the connection.
  c.send(std::string(8192, 'x'));
  Json err = c.next();
  EXPECT_EQ(err.get("event"), "error");
  EXPECT_NE(err.get("message").find("frame exceeds"), std::string::npos);
  // The same connection still serves requests after the discard.
  c.send("{\"op\":\"ping\"}");
  EXPECT_EQ(c.next().get("event"), "pong");
}

TEST(SvcServer, MalformedAndBinaryFramesGetErrorEventsNotHangs) {
  ServerFixture fx;
  RawClient c(fx.socket_path());
  const std::string corpus[] = {
      "{\"op\":\"submit\"",                    // truncated JSON
      "{\"op\":\"submit\",\"spec\":12345}",    // wrong type
      "[1,2,3]",                               // not an object... but JSON
      "\x01\x02\xff\xfe binary garbage",       // raw bytes
      "{\"op\":\"submit\",\"spec\":\"X\"}}}",  // trailing garbage
      "\"just a string\"",
  };
  for (const std::string& frame : corpus) {
    c.send(frame);
    Json ev = c.next();
    EXPECT_EQ(ev.get("event"), "error") << frame;
  }
  // Still alive and serving after the whole corpus.
  c.send("{\"op\":\"ping\"}");
  EXPECT_EQ(c.next().get("event"), "pong");
}

TEST(SvcServer, ChunkedPartialWritesAssembleIntoOneRequest) {
  ServerFixture fx;
  RawClient c(fx.socket_path());
  // A request dribbled in 1-byte writes must parse exactly like one send.
  const std::string req = "{\"op\":\"ping\"}\n";
  for (char ch : req) c.send_raw(std::string(1, ch));
  EXPECT_EQ(c.next().get("event"), "pong");
  // Two requests in one segment both get answered, in order.
  c.send_raw("{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n");
  EXPECT_EQ(c.next().get("event"), "pong");
  EXPECT_EQ(c.next().get("event"), "stats");
}

TEST(SvcServer, MidFrameDisconnectIsHarmless) {
  ServerFixture fx;
  {
    RawClient c(fx.socket_path());
    c.send_raw("{\"op\":\"sub");  // no newline, then hang up
  }
  {
    RawClient c(fx.socket_path());
    c.send_raw(std::string(512, 'y'));  // partial oversized-ish, hang up
  }
  // The daemon shrugged both off.
  RawClient c(fx.socket_path());
  c.send("{\"op\":\"ping\"}");
  EXPECT_EQ(c.next().get("event"), "pong");
}

TEST(SvcServer, ReadTimeoutClosesIdleConnections) {
  ServeOptions so;
  so.read_timeout_s = 0.1;
  ServerFixture fx(std::move(so));
  RawClient c(fx.socket_path());
  c.send("{\"op\":\"ping\"}");
  EXPECT_EQ(c.next().get("event"), "pong");
  // Now idle past the deadline: the server reports and closes.
  Json ev = c.next();
  EXPECT_EQ(ev.get("event"), "error");
  EXPECT_NE(ev.get("message").find("read timeout"), std::string::npos);
  EXPECT_TRUE(c.eof());
}

TEST(SvcServer, StatsReportJournalSectionWhenCacheDirSet) {
  TmpCacheDir dir;
  ServeOptions so;
  so.cache_dir = dir.str();
  ServerFixture fx(std::move(so));
  RawClient c(fx.socket_path());
  c.submit("{\"op\":\"submit\",\"spec\":\"NaiveVoting\"}");
  c.send("{\"op\":\"stats\"}");
  Json stats = c.next();
  ASSERT_TRUE(stats["journal"].is_object());
  // start + 6 obligations + end, appended by this (fresh) journal.
  EXPECT_EQ(stats["journal"]["appended"].as_int(), 8);
  EXPECT_EQ(stats["journal"]["replayed"].as_int(), 0);
  EXPECT_EQ(stats["journal"]["unfinished"].as_int(), 0);
}

// --- hardened client: timeouts and retries ------------------------------

TEST(SvcClient, ConnectFailureRetriesThenExit2) {
  ClientOptions copts;
  copts.retries = 2;
  copts.backoff_base_s = 0.01;
  copts.backoff_cap_s = 0.02;
  std::ostringstream out, err;
  int code = submit_specs("/tmp/ctaver_no_such_daemon.sock", {"NaiveVoting"},
                          out, err, copts);
  EXPECT_EQ(code, 2);
  // Both retry notices went out before the final failure.
  EXPECT_NE(err.str().find("retrying (2/3)"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("retrying (3/3)"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("is `ctaver serve` running?"), std::string::npos);
}

TEST(SvcClient, SilentServerTripsIoTimeoutInsteadOfHanging) {
  // A socket that accepts and then never replies: the old client would
  // block in read_line forever; the hardened one trips its deadline.
  const std::string path = unique_socket_path();
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  std::atomic<bool> done{false};
  std::vector<int> held;  // kept open: the server is silent, not gone
  std::mutex held_mu;
  std::thread sink([&] {  // accept everything, say nothing
    while (!done.load()) {
      pollfd pfd{listener, POLLIN, 0};
      if (::poll(&pfd, 1, 50) > 0) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd >= 0) {
          std::lock_guard<std::mutex> lock(held_mu);
          held.push_back(fd);
        }
      }
    }
  });
  ClientOptions copts;
  copts.connect_timeout_s = 1;
  copts.io_timeout_s = 0.2;
  copts.retries = 1;
  copts.backoff_base_s = 0.01;
  std::ostringstream out, err;
  EXPECT_EQ(request_stats(path, out, err, copts), 2);
  EXPECT_NE(err.str().find("timed out"), std::string::npos) << err.str();
  done.store(true);
  sink.join();
  for (int fd : held) ::close(fd);
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(SvcServer, StopFlagDrainsTheDaemon) {
  // The CLI's SIGTERM handler is one relaxed store into this flag; the
  // accept loop polls it, so this is the signal path minus the signal.
  std::atomic<bool> stop{false};
  ServeOptions so;
  so.stop_flag = &stop;
  ServerFixture fx(std::move(so));
  RawClient c(fx.socket_path());
  c.send("{\"op\":\"ping\"}");
  EXPECT_EQ(c.next().get("event"), "pong");
  stop.store(true, std::memory_order_relaxed);
  fx.join();
}

}  // namespace
}  // namespace ctaver::svc
