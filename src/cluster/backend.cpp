#include "cluster/backend.hpp"

#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace tgroom::cluster {

const char* BackendChannel::status_name(SendStatus s) {
  switch (s) {
    case SendStatus::kOk: return "ok";
    case SendStatus::kNoConnection: return "no_connection";
    case SendStatus::kSendFailed: return "send_failed";
    case SendStatus::kConnectionLost: return "connection_lost";
    case SendStatus::kTimedOut: return "timed_out";
  }
  return "?";
}

BackendChannel::BackendChannel(BackendAddress address,
                               BackendChannelConfig config)
    : address_(std::move(address)), config_(config) {}

BackendChannel::~BackendChannel() { stop(); }

void BackendChannel::start() {
  reader_ = std::thread([this] { reader_loop(); });
}

void BackendChannel::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopping_) {
      // Already stopped (stop() is called from both the router's drain
      // path and the destructor).
    }
    stopping_ = true;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  state_cv_.notify_all();
  if (reader_.joinable()) reader_.join();
}

bool BackendChannel::connected() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return fd_ >= 0;
}

bool BackendChannel::wait_connected(int timeout_ms) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                     [this] { return fd_ >= 0 || stopping_; });
  return fd_ >= 0;
}

namespace {

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// The internal id of one response line ({"id":<int>,...); false for
/// null ids or anything that is not a service response prefix.
bool parse_response_id(std::string_view line, std::int64_t& id) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::size_t i = kPrefix.size();
  bool negative = false;
  if (i < line.size() && line[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  std::int64_t value = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    value = value * 10 + (line[i] - '0');
    ++i;
  }
  id = negative ? -value : value;
  return true;
}

}  // namespace

int BackendChannel::connect_once() {
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const std::string port = std::to_string(address_.port);
  if (::getaddrinfo(address_.host.c_str(), port.c_str(), &hints, &result) !=
      0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      if (::poll(&pfd, 1, config_.connect_timeout_ms) == 1) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
            err == 0) {
          break;
        }
      }
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) return -1;
  // Back to blocking for the reader's recv loop and the senders' writes.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void BackendChannel::reader_loop() {
  int backoff_ms = config_.backoff_initial_ms;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (stopping_) return;
    }
    const int fd = connect_once();
    if (fd < 0) {
      std::unique_lock<std::mutex> lock(state_mutex_);
      state_cv_.wait_for(lock, std::chrono::milliseconds(backoff_ms),
                         [this] { return stopping_; });
      if (stopping_) return;
      backoff_ms = std::min(backoff_ms * 2, config_.backoff_max_ms);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      fd_ = fd;
    }
    state_cv_.notify_all();
    backoff_ms = config_.backoff_initial_ms;

    std::string buffer;
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      while (true) {
        const std::size_t nl = buffer.find('\n', start);
        if (nl == std::string::npos) break;
        std::string_view line(buffer.data() + start, nl - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        std::int64_t id = 0;
        if (parse_response_id(line, id)) {
          std::lock_guard<std::mutex> lock(state_mutex_);
          const auto it = waiters_.find(id);
          if (it != waiters_.end()) {
            Waiter* waiter = it->second;
            waiter->response.assign(line);
            waiter->done = true;
            waiters_.erase(it);
            waiter->cv.notify_one();
          }
          // No waiter: the caller timed out and deregistered, or this is
          // a one-way send's response — either way, drop it.
        }
        start = nl + 1;
      }
      buffer.erase(0, start);
    }

    // Teardown: unpublish the fd, unblock senders mid-write, close only
    // once the last fd lease drops, then fail whatever was in flight.
    std::unique_lock<std::mutex> lock(state_mutex_);
    fd_ = -1;
    ::shutdown(fd, SHUT_RDWR);
    while (senders_inflight_ > 0) state_cv_.wait(lock);
    ::close(fd);
    fail_inflight_locked();
    if (stopping_) return;
  }
}

BackendChannel::SendStatus BackendChannel::send_line(const std::string& line,
                                                     std::int64_t id,
                                                     Waiter* waiter) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopping_ || fd_ < 0) return SendStatus::kNoConnection;
    fd = fd_;
    if (waiter != nullptr) waiters_[id] = waiter;
    ++senders_inflight_;
  }
  bool ok;
  {
    // One mutex-serialized write per line keeps lines atomic on the wire
    // even when many router workers pipeline through this channel.
    std::lock_guard<std::mutex> wl(write_mutex_);
    ok = write_all(fd, line.data(), line.size());
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  --senders_inflight_;
  if (senders_inflight_ == 0) state_cv_.notify_all();
  if (!ok) {
    if (waiter != nullptr) waiters_.erase(id);
    return SendStatus::kSendFailed;
  }
  return SendStatus::kOk;
}

BackendChannel::SendStatus BackendChannel::call(std::string_view stripped,
                                                int timeout_ms,
                                                std::string& response) {
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopping_ || fd_ < 0) return SendStatus::kNoConnection;
    id = next_id_++;
  }
  std::string line = compose_with_id(stripped, id);
  line.push_back('\n');
  Waiter waiter;
  const SendStatus sent = send_line(line, id, &waiter);
  if (sent != SendStatus::kOk) return sent;
  std::unique_lock<std::mutex> lock(state_mutex_);
  const bool finished = waiter.cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&waiter] { return waiter.done || waiter.lost; });
  if (!finished) {
    waiters_.erase(id);  // a late response is dropped by the reader
    return SendStatus::kTimedOut;
  }
  if (waiter.lost) return SendStatus::kConnectionLost;
  response = std::move(waiter.response);
  return SendStatus::kOk;
}

void BackendChannel::send_one_way(std::string_view stripped) {
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (fd_ < 0) return;
    id = next_id_++;
  }
  std::string line = compose_with_id(stripped, id);
  line.push_back('\n');
  send_line(line, id, nullptr);
}

void BackendChannel::fail_inflight_locked() {
  for (auto& [id, waiter] : waiters_) {
    waiter->lost = true;
    waiter->cv.notify_one();
  }
  waiters_.clear();
}

}  // namespace tgroom::cluster
