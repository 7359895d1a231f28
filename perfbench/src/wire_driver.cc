#include "wire_driver.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace perfbench {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool IsTerminal(const std::string& payload) {
  return payload.rfind("OK", 0) == 0 || payload.rfind("ERR", 0) == 0;
}

/// Decodes and checks one response's frames into `result->answer`.
void Finish(const std::vector<std::string>& frames, WireResult* result) {
  const DecodedResponse decoded = DecodeResponse(frames);
  result->answer = ToAnswer(decoded);
  if (decoded.ok) {
    result->server_us =
        std::atof(ppp::net::OkField(decoded.terminal, "optimize_us").c_str()) +
        std::atof(ppp::net::OkField(decoded.terminal, "execute_us").c_str());
  }
}

}  // namespace

double ProcessCpuUs() {
  timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireClient::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
         0;
}

WireResult WireClient::Request(const std::string& payload) {
  WireResult result;
  std::vector<std::string> frames;
  const std::string wire = ppp::net::EncodeFrame(payload);
  result.bytes = wire.size();
  result.frames = 1;
  const double cpu_start = ProcessCpuUs();
  const auto start = std::chrono::steady_clock::now();
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      result.answer.error = "send failed (disconnected)";
      return result;
    }
    off += static_cast<size_t>(n);
  }
  char buf[64 * 1024];
  for (;;) {
    bool terminal = false;
    while (pending_pos_ < pending_.size() && !terminal) {
      std::string& frame = pending_[pending_pos_++];
      result.bytes += frame.size() + 4;
      ++result.frames;
      terminal = IsTerminal(frame);
      frames.push_back(std::move(frame));
    }
    if (pending_pos_ == pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
    }
    if (terminal) break;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      result.latency_us = MicrosSince(start);
      result.cpu_us = ProcessCpuUs() - cpu_start;
      result.answer.error = "connection closed before the terminal frame";
      return result;
    }
    if (!parser_.Feed(buf, static_cast<size_t>(n), &pending_).ok()) {
      result.answer.error = "malformed frame from server";
      return result;
    }
  }
  result.latency_us = MicrosSince(start);
  result.cpu_us = ProcessCpuUs() - cpu_start;
  Finish(frames, &result);
  return result;
}

double RunSequence(WireClient* client, const std::vector<std::string>& payloads,
                   std::vector<WireResult>* results) {
  results->clear();
  results->reserve(payloads.size());
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& payload : payloads) {
    results->push_back(client->Request(payload));
  }
  return MicrosSince(start) / 1e6;
}

}  // namespace perfbench
