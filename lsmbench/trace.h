// Bench-side tracing: spans recorded around the benchmark's own calls
// into DB, Client and Env. Nothing inside the engine is instrumented;
// TracingEnv is an Env decorator passed as DBOptions::env, so every read,
// append and sync the engine issues becomes a child span of the caller
// thread's open span (under the inline engine, flush and compaction I/O
// nests under the op.put that triggered it).
//
// Spans are kept in memory (self time is computed when a span closes:
// its duration minus the time its children cover) and written out when
// the run ends.
#ifndef LSMBENCH_TRACE_H_
#define LSMBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/env.h"

namespace lsmbench {

enum class Span : uint8_t {
  kGet = 0,
  kPut,
  kMGet,
  kWrite,
  kEnvRead,
  kEnvAppend,
  kEnvSync,
  kNumSpans
};
inline constexpr int kNumSpans = static_cast<int>(Span::kNumSpans);

/// "op.get", "env.read", ... as reported in span.<name>.* metrics.
const char* SpanName(Span span);

uint64_t NowNanos();

/// Per-name totals over every closed span; the *_by_root arrays split the
/// count and bytes by the name of the root span it ran under (a root span
/// is its own root).
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t bytes = 0;
  std::array<uint64_t, kNumSpans> count_by_root{};
  std::array<uint64_t, kNumSpans> bytes_by_root{};
};

/// Process-wide span recorder. Spans are recorded only while enabled;
/// each thread keeps its own stack of open spans and its own buffer.
class Tracer {
 public:
  /// At most `keep` span records are retained for WriteSpans; totals
  /// cover every span regardless.
  static void Enable(size_t keep);
  static void Disable();
  static bool enabled();

  /// Totals merged over all threads.
  static std::array<SpanTotals, kNumSpans> Totals();

  /// Writes the retained spans as TSV: id, root, parent, name, start_ns,
  /// end_ns, self_ns, bytes.
  static bool WriteSpans(const std::string& path);

  /// Opens a span on the calling thread; the innermost open span is its
  /// parent, and it shares its root's id. No-op while disabled.
  class Scope {
   public:
    explicit Scope(Span span);
    ~Scope();
    void AddBytes(uint64_t n);

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_;
  };
};

/// Env decorator recording env.read / env.append / env.sync spans.
/// Everything else forwards to `base`.
std::unique_ptr<lilsm::Env> NewTracingEnv(lilsm::Env* base);

}  // namespace lsmbench

#endif  // LSMBENCH_TRACE_H_
