#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace lsmbench {

using lilsm::Env;
using lilsm::RandomAccessFile;
using lilsm::SequentialFile;
using lilsm::Slice;
using lilsm::Status;
using lilsm::WritableFile;

namespace {

struct Record {
  uint64_t id, root, parent, start_ns, end_ns, self_ns, bytes;
  Span name;
};

struct Frame {
  uint64_t id, root, parent, start_ns, child_ns, bytes;
  Span name, root_name;
};

struct ThreadState {
  std::vector<Frame> stack;
  std::array<SpanTotals, kNumSpans> totals{};
  std::vector<Record> kept;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<size_t> g_kept{0};
std::atomic<size_t> g_keep_limit{0};
std::mutex g_mu;
// Owned here rather than by thread_local storage so a worker thread's
// spans outlive the thread; Totals/WriteSpans run after workers joined.
std::vector<std::unique_ptr<ThreadState>> g_threads;

ThreadState& Local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    state = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::move(owned));
  }
  return *state;
}

}  // namespace

const char* SpanName(Span span) {
  static constexpr const char* kNames[kNumSpans] = {
      "op.get",   "op.put",    "op.mget",   "op.write",
      "env.read", "env.append", "env.sync"};
  return kNames[static_cast<int>(span)];
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::Enable(size_t keep) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto& state : g_threads) {
      state->totals = {};
      state->kept.clear();
    }
  }
  g_kept = 0;
  g_keep_limit = keep;
  g_enabled = true;
}

void Tracer::Disable() { g_enabled = false; }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::array<SpanTotals, kNumSpans> Tracer::Totals() {
  std::array<SpanTotals, kNumSpans> out{};
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& state : g_threads) {
    for (int i = 0; i < kNumSpans; i++) {
      const SpanTotals& t = state->totals[i];
      out[i].count += t.count;
      out[i].total_ns += t.total_ns;
      out[i].self_ns += t.self_ns;
      out[i].bytes += t.bytes;
      for (int r = 0; r < kNumSpans; r++) {
        out[i].count_by_root[r] += t.count_by_root[r];
        out[i].bytes_by_root[r] += t.bytes_by_root[r];
      }
    }
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\troot\tparent\tname\tstart_ns\tend_ns\tself_ns\tbytes\n");
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& state : g_threads) {
    for (const Record& r : state->kept) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%llu\t%llu\t%llu\t%llu\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.root),
                   static_cast<unsigned long long>(r.parent),
                   SpanName(r.name),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns),
                   static_cast<unsigned long long>(r.self_ns),
                   static_cast<unsigned long long>(r.bytes));
    }
  }
  return std::fclose(f) == 0;
}

Tracer::Scope::Scope(Span span) : active_(enabled()) {
  if (!active_) return;
  ThreadState& state = Local();
  Frame frame;
  frame.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  frame.name = span;
  if (state.stack.empty()) {
    frame.root = frame.id;
    frame.root_name = span;
    frame.parent = 0;
  } else {
    frame.root = state.stack.back().root;
    frame.root_name = state.stack.back().root_name;
    frame.parent = state.stack.back().id;
  }
  frame.child_ns = 0;
  frame.bytes = 0;
  frame.start_ns = NowNanos();
  state.stack.push_back(frame);
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  const uint64_t end = NowNanos();
  ThreadState& state = Local();
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const uint64_t duration = end - frame.start_ns;
  // Children on one thread nest and never overlap, so the time they
  // cover is the sum of their durations.
  const uint64_t self = duration - frame.child_ns;
  if (!state.stack.empty()) state.stack.back().child_ns += duration;

  SpanTotals& totals = state.totals[static_cast<int>(frame.name)];
  totals.count++;
  totals.total_ns += duration;
  totals.self_ns += self;
  totals.bytes += frame.bytes;
  totals.count_by_root[static_cast<int>(frame.root_name)]++;
  totals.bytes_by_root[static_cast<int>(frame.root_name)] += frame.bytes;

  if (g_kept.fetch_add(1, std::memory_order_relaxed) < g_keep_limit) {
    state.kept.push_back({frame.id, frame.root, frame.parent, frame.start_ns,
                          end, self, frame.bytes, frame.name});
  }
}

void Tracer::Scope::AddBytes(uint64_t n) {
  if (active_) Local().stack.back().bytes += n;
}

namespace {

class TracedRandomAccessFile final : public RandomAccessFile {
 public:
  explicit TracedRandomAccessFile(std::unique_ptr<RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Tracer::Scope span(Span::kEnvRead);
    Status s = base_->Read(offset, n, result, scratch);
    span.AddBytes(result->size());
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
};

class TracedWritableFile final : public WritableFile {
 public:
  explicit TracedWritableFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    Tracer::Scope span(Span::kEnvAppend);
    span.AddBytes(data.size());
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    Tracer::Scope span(Span::kEnvSync);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
};

class TracingEnv final : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<TracedRandomAccessFile>(std::move(file));
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<TracedWritableFile>(std::move(file));
    }
    return s;
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status SyncDir(const std::string& dirname) override {
    Tracer::Scope span(Span::kEnvSync);
    return base_->SyncDir(dirname);
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }

 private:
  Env* const base_;
};

}  // namespace

std::unique_ptr<Env> NewTracingEnv(Env* base) {
  return std::make_unique<TracingEnv>(base);
}

}  // namespace lsmbench
