#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "client/client.h"

extern char** environ;

namespace lsmbench {

using lilsm::Status;

StatsDump::Timer StatsDump::timer(const std::string& name) const {
  auto it = timers.find(name);
  return it == timers.end() ? Timer() : it->second;
}

uint64_t StatsDump::count(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

StatsDump ParseStatsDump(const std::string& text) {
  StatsDump dump;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    char name[64];
    StatsDump::Timer t;
    unsigned long long n = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "%63s total=%lf ms mean=%lf us n=%llu%n",
                    name, &t.total_ms, &t.mean_us, &n, &consumed) == 4 &&
        consumed == static_cast<int>(line.size())) {
      t.n = n;
      dump.timers[name] = t;
    } else if (std::sscanf(line.c_str(), "%63s %llu%n", name, &n,
                           &consumed) == 2 &&
               consumed == static_cast<int>(line.size())) {
      dump.counters[name] = n;
    }
  }
  return dump;
}

uint64_t PeakRssKiB(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1) return kib;
  }
  return 0;
}

Status ServerProcess::Launch(const std::string& binary, const std::string& db,
                             const std::string& socket,
                             const std::string& log_path,
                             std::unique_ptr<ServerProcess>* server) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::string db_flag = "--db=" + db;
  std::string socket_flag = "--socket=" + socket;
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             db_flag.data(), socket_flag.data(), nullptr};
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return Status::IOError("spawn " + binary, std::to_string(rc));
  }
  server->reset(new ServerProcess(pid, socket, log_path));
  return Status::OK();
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wait_status = 0;
    ::waitpid(pid_, &wait_status, 0);
  }
}

bool ServerProcess::Reap(int* wait_status) {
  if (::waitpid(pid_, wait_status, WNOHANG) == pid_) {
    pid_ = -1;
    return true;
  }
  return false;
}

Status ServerProcess::WaitForPing(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  Status s;
  while (std::chrono::steady_clock::now() < deadline) {
    int wait_status = 0;
    if (Reap(&wait_status)) {
      return Status::IOError("lilsm_server exited during start-up; see",
                             log_path_);
    }
    std::unique_ptr<lilsm::Client> client;
    s = lilsm::Client::Connect(socket_, &client);
    if (s.ok()) s = client->Ping();
    if (s.ok()) return s;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return Status::IOError("no Ping answer from lilsm_server", s.ToString());
}

uint64_t ServerProcess::PeakRssKiB() const {
  return lsmbench::PeakRssKiB(std::to_string(pid_));
}

Status ServerProcess::Stop(double timeout_s, std::string* log) {
  Status s;
  if (pid_ <= 0 || ::kill(pid_, SIGTERM) != 0) {
    s = Status::IOError("lilsm_server is not running");
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    int wait_status = 0;
    while (!Reap(&wait_status)) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (pid_ > 0) {
      s = Status::IOError("lilsm_server did not exit after SIGTERM");
    } else if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
      s = Status::IOError("lilsm_server exited abnormally, status",
                          std::to_string(wait_status));
    }
  }
  std::ifstream in(log_path_);
  std::stringstream text;
  text << in.rdbuf();
  *log = text.str();
  if (s.ok() && log->find("clean shutdown") == std::string::npos) {
    s = Status::IOError("lilsm_server log lacks \"clean shutdown\"");
  }
  return s;
}

}  // namespace lsmbench
