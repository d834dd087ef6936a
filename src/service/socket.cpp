#include "src/service/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/error.hpp"
#include "src/service/protocol.hpp"

namespace gsnp::service {

namespace {

int make_unix_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GSNP_CHECK_MSG(fd >= 0,
                 "cannot create AF_UNIX socket: " << std::strerror(errno));
  return fd;
}

sockaddr_un make_address(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  GSNP_CHECK_MSG(s.size() < sizeof(addr.sun_path),
                 "socket path too long: " << s);
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

/// FNV-1a of the client's salt string -> the u64 backoff_sequence wants.
u64 salt_hash(std::string_view s) {
  u64 h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Wait until `fd` is ready for `events` (POLLIN/POLLOUT).  Returns false on
/// deadline expiry; timeout_seconds <= 0 waits forever.  Errors report as
/// ready (the following read/send surfaces the real errno).
bool wait_ready(int fd, short events, double timeout_seconds) {
  const int timeout_ms =
      timeout_seconds <= 0.0
          ? -1
          : std::max(1, static_cast<int>(timeout_seconds * 1000.0));
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno == EINTR) continue;
    return true;
  }
}

/// Write all of `data`.  MSG_NOSIGNAL: a vanished peer is EPIPE on this
/// call, never a process-wide SIGPIPE.  byte_sliced (chaos) issues one-byte
/// writes so readers see maximally fragmented delivery.  Returns false on a
/// broken connection or a POLLOUT deadline.
bool write_all(int fd, std::string_view data, double timeout_seconds,
               bool byte_sliced) {
  std::size_t off = 0;
  while (off < data.size()) {
    if (!wait_ready(fd, POLLOUT, timeout_seconds)) return false;
    const std::size_t want = byte_sliced ? 1 : data.size() - off;
    const ssize_t n = ::send(fd, data.data() + off, want, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, const std::string& line, double timeout_seconds = 0.0,
                bool byte_sliced = false) {
  std::string framed = line;
  framed.push_back('\n');
  return write_all(fd, framed, timeout_seconds, byte_sliced);
}

enum class ReadStatus {
  kLine,      ///< a complete line landed in `line`
  kClosed,    ///< EOF or a socket error with no complete line
  kTooLarge,  ///< buffered bytes exceeded max_frame with no newline yet
  kTimeout,   ///< no bytes arrived within timeout_seconds
};

/// Read up to the next '\n' into `line` (not included), buffering extra
/// bytes in `buffer`.  Bounded: never holds more than max_frame bytes of an
/// unterminated line.  timeout_seconds <= 0 blocks forever.
ReadStatus read_line(int fd, std::string& buffer, std::string& line,
                     std::size_t max_frame, double timeout_seconds) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      if (nl > max_frame) return ReadStatus::kTooLarge;
      line.assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return ReadStatus::kLine;
    }
    if (buffer.size() > max_frame) return ReadStatus::kTooLarge;
    if (!wait_ready(fd, POLLIN, timeout_seconds)) return ReadStatus::kTimeout;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string frame_too_large_line(std::size_t max_frame) {
  Response reject;
  reject.ok = false;
  reject.error = ErrorCode::kFrameTooLarge;
  reject.message =
      "request line exceeds " + std::to_string(max_frame) + " bytes";
  return encode_response(reject);
}

}  // namespace

LineServer::LineServer(std::filesystem::path socket_path, Handler handler,
                       ServerOptions options)
    : path_(std::move(socket_path)),
      handler_(std::move(handler)),
      options_(options) {
  GSNP_CHECK_MSG(handler_ != nullptr, "LineServer needs a handler");
  GSNP_CHECK_MSG(options_.max_frame_bytes > 0, "max_frame_bytes must be > 0");
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // stale socket from a dead daemon
  listen_fd_ = make_unix_socket();
  const sockaddr_un addr = make_address(path_);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    GSNP_CHECK_MSG(false, "cannot bind " << path_ << ": "
                                         << std::strerror(err));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    std::filesystem::remove(path_, ec);
    GSNP_CHECK_MSG(false, "cannot listen on " << path_ << ": "
                                              << std::strerror(err));
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

LineServer::~LineServer() { stop(); }

void LineServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // Closing the listen fd unblocks accept(); shutting down connection fds
  // unblocks their reads.  Exchange the fd out so the accept loop, which
  // re-reads it every iteration, never races the close.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fd, thread] : connections_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  // No connection starts now.  A connection still running finds itself gone
  // from the map when it ends, and is joined here with the ended ones.
  std::map<int, std::thread> running;
  std::vector<std::thread> finished;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    running.swap(connections_);
    finished.swap(finished_);
  }
  for (auto& [fd, thread] : running) thread.join();
  for (std::thread& thread : finished) thread.join();
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

void LineServer::accept_loop() {
  for (;;) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;  // stop() already closed it
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed by stop(), or fatal — either way, done
    }
    std::vector<std::thread> finished;
    {
      // stop() sets stopping_ before it takes mu_ to shut the open fds
      // down, so a connection added here is either shut down or refused.
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      finished.swap(finished_);
      connections_.emplace(fd, std::thread([this, fd] { serve_connection(fd); }));
    }
    for (std::thread& thread : finished) thread.join();
  }
}

void LineServer::serve_connection(int fd) {
  std::string buffer, line;
  while (!stopping_.load()) {
    const ReadStatus status =
        read_line(fd, buffer, line, options_.max_frame_bytes,
                  options_.idle_timeout_seconds);
    if (status == ReadStatus::kTooLarge) {
      // Framing is unrecoverable past the cap — typed reject, then close.
      (void)write_line(fd, frame_too_large_line(options_.max_frame_bytes));
      break;
    }
    if (status != ReadStatus::kLine) break;  // peer closed, or idle deadline

    std::string reply = handler_(line);
    const i64 reply_index = replies_.fetch_add(1);
    const NetFaultPlan& chaos = options_.chaos;
    if (chaos.stall_at >= 0 && reply_index == chaos.stall_at &&
        chaos.stall_seconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(chaos.stall_seconds));
    if (chaos.disconnect_at >= 0 && reply_index == chaos.disconnect_at) {
      // Mid-frame cut: half the framed reply, then hang up.  The client sees
      // a truncated line followed by EOF and must discard + reconnect.
      std::string framed = reply;
      framed.push_back('\n');
      (void)write_all(fd, std::string_view(framed).substr(0, framed.size() / 2),
                      0.0, false);
      break;
    }
    if (!write_line(fd, reply, 0.0, chaos.byte_sliced)) break;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = connections_.find(fd);
    if (it != connections_.end()) {  // else stop() holds the thread
      finished_.push_back(std::move(it->second));
      connections_.erase(it);
    }
  }
  ::close(fd);
}

LineClient::LineClient(std::filesystem::path socket_path,
                       ClientOptions options)
    : path_(std::move(socket_path)), options_(std::move(options)) {}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::ensure_connected() {
  if (fd_ >= 0) return;
  const int fd = make_unix_socket();
  const sockaddr_un addr = make_address(path_);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    GSNP_CHECK_MSG(false, "cannot connect to " << path_ << ": "
                                               << std::strerror(err)
                                               << " (is gsnpd running?)");
  }
  fd_ = fd;
  buffer_.clear();  // stale bytes from a previous connection are meaningless
  ++connects_;
}

void LineClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

std::string LineClient::attempt(const std::string& line) {
  ensure_connected();
  GSNP_CHECK_MSG(
      write_line(fd_, line, options_.op_timeout_seconds),
      "connection lost while sending (or send deadline expired)");
  std::string reply;
  const ReadStatus status =
      read_line(fd_, buffer_, reply, options_.max_frame_bytes,
                options_.op_timeout_seconds);
  GSNP_CHECK_MSG(status != ReadStatus::kTimeout,
                 "no reply within " << options_.op_timeout_seconds
                                    << "s from " << path_);
  GSNP_CHECK_MSG(status != ReadStatus::kTooLarge,
                 "reply exceeds the client frame cap of "
                     << options_.max_frame_bytes << " bytes");
  GSNP_CHECK_MSG(status == ReadStatus::kLine,
                 "connection closed before a reply arrived");
  return reply;
}

std::string LineClient::request(const std::string& line) {
  const int attempts = std::max(1, options_.retry.max_attempts);
  const std::vector<double> sleeps = core::backoff_sequence(
      options_.retry, salt_hash(options_.backoff_salt));
  std::string last_error;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    try {
      return this->attempt(line);
    } catch (const Error& e) {
      last_error = e.what();
      // A failed attempt may have left a half-read reply or a half-written
      // request on the wire; the only safe recovery is a fresh connection.
      disconnect();
      if (attempt == attempts) break;
      const std::size_t sleep_index = static_cast<std::size_t>(
          std::min<int>(attempt - 1, static_cast<int>(sleeps.size()) - 1));
      if (!sleeps.empty() && sleeps[sleep_index] > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleeps[sleep_index]));
    }
  }
  GSNP_CHECK_MSG(false, "request failed after " << attempts << " attempt(s): "
                                                << last_error);
}

}  // namespace gsnp::service
