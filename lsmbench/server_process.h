// Drives a lilsm_server child process for the serve_mixed workload. It is
// launched with only --db and --socket (every other server flag stays at
// its default), probed with Ping until it answers, and stopped with
// SIGTERM; its stderr goes to a log file holding the Stats dump it prints
// at clean shutdown.
#ifndef LSMBENCH_SERVER_PROCESS_H_
#define LSMBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/status.h"

namespace lsmbench {

/// The lines of lilsm::Stats::ToString(): "name total=X ms mean=Y us n=N"
/// timers and "name N" counters. Absent names read as 0.
struct StatsDump {
  struct Timer {
    double total_ms = 0;
    double mean_us = 0;
    uint64_t n = 0;
  };
  std::map<std::string, Timer> timers;
  std::map<std::string, uint64_t> counters;

  Timer timer(const std::string& name) const;
  uint64_t count(const std::string& name) const;
};

StatsDump ParseStatsDump(const std::string& text);

/// VmHWM of process `pid` ("self" for this process) in KiB, or 0.
uint64_t PeakRssKiB(const std::string& pid);

class ServerProcess {
 public:
  /// Starts `binary --db=<db> --socket=<socket>` with stdout and stderr
  /// written to `log_path` (truncated first).
  static lilsm::Status Launch(const std::string& binary, const std::string& db,
                              const std::string& socket,
                              const std::string& log_path,
                              std::unique_ptr<ServerProcess>* server);

  /// Kills and reaps the child if Stop() did not.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Connects and pings until the first Ping succeeds.
  lilsm::Status WaitForPing(double timeout_s);

  /// VmHWM of the server in KiB (read while it runs).
  uint64_t PeakRssKiB() const;

  /// Sends SIGTERM and waits for the exit. OK only when the server exited
  /// 0 and logged "clean shutdown"; `*log` receives the whole log.
  lilsm::Status Stop(double timeout_s, std::string* log);

 private:
  ServerProcess(pid_t pid, std::string socket, std::string log_path)
      : pid_(pid), socket_(std::move(socket)), log_path_(std::move(log_path)) {}

  /// Reaps the child if it has exited; true when it has.
  bool Reap(int* wait_status);

  pid_t pid_;
  const std::string socket_;
  const std::string log_path_;
};

}  // namespace lsmbench

#endif  // LSMBENCH_SERVER_PROCESS_H_
