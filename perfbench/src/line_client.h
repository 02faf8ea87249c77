#ifndef PERFBENCH_LINE_CLIENT_H_
#define PERFBENCH_LINE_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "bench_common.h"

namespace perfbench {

/// A blocking client for the daemon's newline protocol over loopback TCP.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = 60;  // a stuck server fails the run instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return connected_; }

  bool Send(const std::string& text) {
    size_t off = 0;
    while (off < text.size()) {
      ssize_t n = ::send(fd_, text.data() + off, text.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// One line without its '\n'; "" on EOF or timeout.
  std::string ReadLine() {
    while (true) {
      size_t pos = buf_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return line;
      }
      char tmp[4096];
      ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return "";
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  /// Sends one `submit` and reads up to its streamed completion line
  /// (skipping the `queued` ack). Returns the `job ...` line, a `reject:`
  /// line, or "" when the connection failed.
  std::string SubmitAndWait(const std::string& submit_line) {
    if (!Send(submit_line)) return "";
    while (true) {
      std::string line = ReadLine();
      if (line.empty() || line.rfind("job ", 0) == 0 ||
          line.rfind("reject:", 0) == 0) {
        return line;
      }
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// The value of ` key=` in a completion line, or "" when absent.
inline std::string Field(const std::string& line, const std::string& key) {
  std::string needle = " " + key + "=";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = line.find(' ', pos);
  return line.substr(pos, end == std::string::npos ? std::string::npos
                                                   : end - pos);
}

/// Whether a completion line's summary scalar is the reference's (always
/// true for apps whose summary is unchecked).
inline bool SummaryMatches(const std::string& line, const Expected& expected) {
  return !expected.summary_checked ||
         std::strtoull(Field(line, "summary").c_str(), nullptr, 10) ==
             expected.summary;
}

}  // namespace perfbench

#endif  // PERFBENCH_LINE_CLIENT_H_
