#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/serializer.h"

namespace pacman::e2e {

WireClient::~WireClient() {
  if (fd_ >= 0) close(fd_);
}

bool WireClient::Open(uint16_t port, double recv_timeout_s) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout_s);
  tv.tv_usec = static_cast<suseconds_t>(
      (recv_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  std::vector<uint8_t> p;
  if (!Send(net::HelloFrame()) || !RecvFrame(&p) || p.empty() ||
      p[0] != static_cast<uint8_t>(net::MsgType::kHelloOk)) {
    return false;
  }
  Serializer open;
  open.PutU8(static_cast<uint8_t>(net::MsgType::kOpenSession));
  std::string wire;
  net::AppendFrame(open, &wire);
  return Send(wire) && RecvFrame(&p) && !p.empty() &&
         p[0] == static_cast<uint8_t>(net::MsgType::kSessionOpened);
}

bool WireClient::GetProc(const std::string& name, uint32_t* id) {
  Serializer s(1 + sizeof(uint32_t) + name.size());
  s.PutU8(static_cast<uint8_t>(net::MsgType::kGetProc));
  s.PutString(name);
  std::string wire;
  net::AppendFrame(s, &wire);
  std::vector<uint8_t> p;
  if (!Send(wire) || !RecvFrame(&p) || p.empty() ||
      p[0] != static_cast<uint8_t>(net::MsgType::kProcInfo)) {
    return false;
  }
  Deserializer d(p.data() + 1, p.size() - 1);
  uint8_t status = 0;
  std::string msg;
  return d.GetU8(&status).ok() && d.GetString(&msg).ok() && status == 0 &&
         d.GetU32(id).ok();
}

bool WireClient::Send(const std::string& frame) {
  const char* p = frame.data();
  size_t n = frame.size();
  while (n > 0) {
    const ssize_t w = send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  bytes_sent_ += frame.size();
  return true;
}

bool WireClient::RecvCallResult(net::CallResultMsg* out) {
  std::vector<uint8_t> p;
  if (!RecvFrame(&p) || p.empty() ||
      p[0] != static_cast<uint8_t>(net::MsgType::kCallResult)) {
    return false;
  }
  Deserializer d(p.data() + 1, p.size() - 1);
  return net::ParseCallResult(&d, out).ok();
}

bool WireClient::RecvFrame(std::vector<uint8_t>* payload) {
  // Buffered: one recv usually carries many result frames.
  for (;;) {
    const size_t avail = inbuf_.size() - inpos_;
    if (avail >= sizeof(uint32_t)) {
      uint32_t len = 0;
      std::memcpy(&len, inbuf_.data() + inpos_, sizeof(len));
      if (len == 0 || len > net::kFrameLimit) return false;
      if (avail >= sizeof(len) + len) {
        const uint8_t* start = inbuf_.data() + inpos_ + sizeof(len);
        payload->assign(start, start + len);
        inpos_ += sizeof(len) + len;
        return true;
      }
    }
    if (inpos_ > 0) {
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + inpos_);
      inpos_ = 0;
    }
    uint8_t chunk[64 * 1024];
    const ssize_t r = recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;  // Closed, error, or receive timeout.
    inbuf_.insert(inbuf_.end(), chunk, chunk + r);
    bytes_received_ += static_cast<uint64_t>(r);
  }
}

}  // namespace pacman::e2e
