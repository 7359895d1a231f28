#ifndef PERFBENCH_WIRE_DRIVER_H_
#define PERFBENCH_WIRE_DRIVER_H_

#include <string>
#include <vector>

#include "answer.h"
#include "net/wire.h"

namespace perfbench {

/// What one client saw for one request.
struct WireResult {
  Answer answer;
  double latency_us = 0.0;  ///< Send of the request to its terminal frame.
  /// CPU time of the whole process (client and server threads) over the
  /// same span.
  double cpu_us = 0.0;
  /// The OK frame's optimize_us + execute_us (0 on ERR).
  double server_us = 0.0;
  uint64_t bytes = 0;   ///< Request + response bytes, frame headers included.
  uint64_t frames = 0;  ///< Request + response frames.
};

/// A blocking loopback client speaking the length-prefixed frame protocol.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(int port);

  /// Sends `payload`, waits for the terminal frame, decodes and checks
  /// nothing: the answer is computed after the latency is taken.
  WireResult Request(const std::string& payload);

 private:
  int fd_ = -1;
  ppp::net::FrameParser parser_;
  std::vector<std::string> pending_;
  size_t pending_pos_ = 0;
};

/// CPU time the process has used, all threads, in microseconds.
double ProcessCpuUs();

/// Sends `payloads` one after another in a closed loop, each only after
/// the previous reply's terminal frame; returns the wall seconds.
double RunSequence(WireClient* client, const std::vector<std::string>& payloads,
                   std::vector<WireResult>* results);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_DRIVER_H_
