#pragma once
// Line-oriented AF_UNIX transport for the gsnpd protocol: a LineServer
// accepts local connections and feeds each received line (one JSON request)
// to a handler whose returned line (one JSON response) is written back; a
// LineClient is the blocking request/response counterpart.  The transport
// knows nothing about the protocol contents — protocol.hpp owns the line
// payloads — with one deliberate exception: a request line that overruns the
// server's max-frame cap is answered with a typed
// `ServiceError(kFrameTooLarge)` response before the connection closes,
// because once framing is lost the handler can never be reached.
//
// Hardening (DESIGN.md "Storage and network faults"):
//  * bounded buffering — a client that streams bytes without a newline can
//    no longer balloon server memory; past ServerOptions::max_frame_bytes
//    the connection gets the typed reject and is closed.
//  * no SIGPIPE — all writes go through send(MSG_NOSIGNAL), so a peer that
//    disappears mid-reply surfaces as EPIPE on that write, never a signal
//    that kills the daemon.
//  * idle deadlines — a connected-but-silent peer is dropped after
//    ServerOptions::idle_timeout_seconds, freeing its thread.
//  * chaos mode — NetFaultPlan lets tests deterministically cut a reply
//    mid-frame, stall before a reply, or deliver every reply one byte per
//    write(); clients must survive all three.
//
// LineClient wraps every request in per-operation poll deadlines and a
// seeded-jitter reconnect loop (the same core::RetryPolicy/backoff_sequence
// machinery the engines retry with).  Blind resend after reconnect is safe
// for every protocol verb because the daemon's mutating op — submit — is
// idempotent when the client supplies the job id: a resent submit of the
// identical spec is answered from existing state, not run twice.  Resilient
// clients should therefore always name their jobs.

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/types.hpp"
#include "src/core/genome_pipeline.hpp"  // core::RetryPolicy

namespace gsnp::service {

/// Deterministic server-side network chaos, counted in replies served (the
/// counter is server-wide, so with a single test client "reply N" is exact).
/// All fields off by default; production servers never enable this.
struct NetFaultPlan {
  i64 disconnect_at = -1;  ///< cut reply #N mid-frame (half the bytes), close
  i64 stall_at = -1;       ///< sleep stall_seconds before writing reply #N
  double stall_seconds = 0.25;
  bool byte_sliced = false;  ///< deliver every reply one byte per write()

  bool enabled() const {
    return disconnect_at >= 0 || stall_at >= 0 || byte_sliced;
  }
};

struct ServerOptions {
  /// Longest request line accepted (bytes, newline excluded).  Overruns get
  /// a typed kFrameTooLarge response and the connection is closed.
  std::size_t max_frame_bytes = 4ull << 20;
  /// Drop a connection idle this long between requests; 0 = never.
  double idle_timeout_seconds = 0.0;
  NetFaultPlan chaos;  ///< test-only fault injection (see above)
};

class LineServer {
 public:
  /// Called once per received line (without the trailing '\n'); the returned
  /// string is sent back as one line.  Must be thread-safe: each connection
  /// is served from its own thread.
  using Handler = std::function<std::string(const std::string& line)>;

  /// Binds and listens on `socket_path` (an existing stale socket file is
  /// removed first).  Throws gsnp::Error when the socket cannot be bound —
  /// e.g. a sandbox with no AF_UNIX support; callers surface that loudly.
  LineServer(std::filesystem::path socket_path, Handler handler,
             ServerOptions options = {});
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Stop accepting, shut down open connections, join all threads, unlink
  /// the socket file.  Idempotent; the destructor calls it.
  void stop();

  const std::filesystem::path& path() const { return path_; }
  const ServerOptions& options() const { return options_; }

 private:
  void accept_loop();
  void serve_connection(int fd);

  std::filesystem::path path_;
  Handler handler_;
  ServerOptions options_;
  // Atomic: stop() exchanges the fd out while accept_loop() reads it.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<i64> replies_{0};
  std::thread acceptor_;
  std::mutex mu_;
  /// Open connections by fd: stop() shuts these fds down.  A connection
  /// leaves the map before its fd closes, so stop() never shuts down a
  /// number that another socket has since taken.
  std::map<int, std::thread> connections_;
  /// Threads of ended connections, joined at the next accept or by stop().
  std::vector<std::thread> finished_;
};

struct ClientOptions {
  /// Per-operation poll deadline (each blocking send/receive wait); a hung
  /// or stalled peer fails the attempt after this long.  0 = wait forever.
  double op_timeout_seconds = 5.0;
  /// Longest reply line this client will buffer before failing the attempt.
  std::size_t max_frame_bytes = 4ull << 20;
  /// Reconnect policy: max_attempts tries per request(), with the seeded
  /// jittered backoff_sequence sleeps between them.  max_attempts <= 1
  /// disables retry entirely.
  core::RetryPolicy retry;
  /// Salt for the backoff jitter stream, so concurrent clients desynchronize
  /// deterministically (same role as the daemon's per-chromosome salt).
  std::string backoff_salt = "line-client";
};

class LineClient {
 public:
  /// Connects lazily on first request(); every request runs under
  /// `options` deadlines and reconnects with jittered backoff on connection
  /// loss, resending the line (see the idempotency note above).  A single
  /// attempt with op_timeout_seconds = 0 is a plain blocking client.
  LineClient(std::filesystem::path socket_path, ClientOptions options);

  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send one line, block for one line back.  Throws gsnp::Error once every
  /// attempt allowed by the options is exhausted.
  std::string request(const std::string& line);

  bool connected() const { return fd_ >= 0; }
  /// Connection attempts that had to be made (first connects + reconnects);
  /// a resilience test asserts this grew across an injected disconnect.
  u64 connects() const { return connects_; }

 private:
  void ensure_connected();
  void disconnect();
  std::string attempt(const std::string& line);

  std::filesystem::path path_;
  ClientOptions options_;
  int fd_ = -1;
  u64 connects_ = 0;
  std::string buffer_;  ///< bytes read past the last returned line
};

}  // namespace gsnp::service
