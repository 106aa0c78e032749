// Copyright (c) 2026 The PACMAN reproduction authors.
// Minimal blocking client of the wire protocol (docs/PROTOCOL.md), built
// only on net/protocol.h. Not thread-safe: one client thread per
// connection.
#ifndef PACMAN_BENCH_E2E_WIRE_CLIENT_H_
#define PACMAN_BENCH_E2E_WIRE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace pacman::e2e {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // Connects, says hello and opens a session. `recv_timeout_s` bounds
  // every later receive, so a stalled server fails the run instead of
  // hanging it.
  bool Open(uint16_t port, double recv_timeout_s);
  // Resolves a procedure name to its wire id.
  bool GetProc(const std::string& name, uint32_t* id);

  bool Send(const std::string& frame);
  // Next kCallResult; false on a closed connection, timeout or any other
  // frame type.
  bool RecvCallResult(net::CallResultMsg* out);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  bool RecvFrame(std::vector<uint8_t>* payload);

  int fd_ = -1;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  std::vector<uint8_t> inbuf_;  // Received bytes not yet parsed.
  size_t inpos_ = 0;
};

}  // namespace pacman::e2e

#endif  // PACMAN_BENCH_E2E_WIRE_CLIENT_H_
