// lsmbench: the repository benchmark. One invocation runs one workload
// against lilsm through its public APIs, checks every answer against an
// oracle, and prints one JSON line of metrics (lsmbench/run.py builds
// this binary, runs it and renames the line into the benchmark's result;
// lsmbench/README.md describes the workloads and metrics).
//
//   lsmbench --workload NAME --seed N --seconds S --trace 0|1
//            --server-bin PATH [--work-dir DIR] [--keys N]
//   lsmbench --selftest-checker [--work-dir DIR]
//
// The engine runs with lilsm's defaults; the benchmark sets only
// DBOptions::env and DBOptions::block_cache_bytes, and starts
// lilsm_server with only --db and --socket.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"
#include "client/client.h"
#include "lsm/db.h"
#include "server_process.h"
#include "trace.h"
#include "util/random.h"
#include "workload/dataset.h"
#include "workload/zipf.h"

namespace lsmbench {
namespace {

using lilsm::DB;
using lilsm::DBOptions;
using lilsm::ReadOptions;
using lilsm::Slice;
using lilsm::Status;
using lilsm::WriteOptions;

enum class Workload { kLookupCold, kWriteMixed, kServeMixed };

constexpr size_t kBatch = 16;  // keys per MultiGet, puts per Write
// write_mixed's block cache: a quarter of the ~124 MB of table data, so
// its zipf Gets both hit and miss, and the blocks of the tables each
// compaction writes push older ones out.
constexpr size_t kWriteCacheBytes = size_t{32} << 20;
constexpr double kZipfTheta = 0.99;
constexpr int kServeClients = 2;
constexpr size_t kKeptSpans = size_t{1} << 18;
constexpr double kServerTimeoutS = 60;

// Request stream lengths. A timed phase cycles through its stream.
constexpr size_t kColdStream = size_t{1} << 20;
constexpr size_t kWriteStream = size_t{1} << 20;
constexpr size_t kServeStream = size_t{1} << 15;  // per client, in calls

constexpr int kNumOps = 4;  // Span::kGet .. Span::kWrite are client calls

// The untraced run sets up this many times; see Run::Execute.
constexpr int kSetups = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;
  std::string work_dir = ".lsmbench_run";
  size_t keys = 1000000;
  bool selftest_checker = false;
};

/// One client call: `key` indexes the oracle's keys (for served calls it
/// is the first of kBatch entries in the client's key list).
struct Request {
  uint32_t key;
  Span op;
};

struct Inputs {
  std::vector<uint32_t> load_order;
  std::vector<Request> stream;                  // in-process workloads
  std::vector<std::vector<Request>> clients;    // serve_mixed, per client
  std::vector<std::vector<uint32_t>> client_keys;
};

/// What a timed phase measured.
struct Phase {
  uint64_t calls = 0;
  uint64_t failed = 0;
  uint64_t puts = 0;
  double seconds = 0;
  std::array<std::vector<uint32_t>, kNumOps> latency_ns;
  std::string wrong;  // the first wrong answer, if any

  /// Reserves room for `calls` latencies per call type. Untouched
  /// capacity costs no memory, and without it a growing vector would
  /// briefly hold two copies, so the benchmark's peak RSS would jump
  /// with the call count.
  void Reserve(size_t calls) {
    for (auto& v : latency_ns) v.reserve(calls);
  }

  void Record(Span op, uint64_t t0, uint64_t t1) {
    latency_ns[static_cast<int>(op)].push_back(
        static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    calls++;
  }

  /// Adds a phase that ran at the same time (another client's).
  void Merge(const Phase& other) {
    calls += other.calls;
    failed += other.failed;
    puts += other.puts;
    for (int op = 0; op < kNumOps; op++) {
      latency_ns[op].insert(latency_ns[op].end(),
                            other.latency_ns[op].begin(),
                            other.latency_ns[op].end());
    }
    if (wrong.empty()) wrong = other.wrong;
  }

  std::vector<uint32_t> AllLatencies() const {
    std::vector<uint32_t> all;
    for (const auto& v : latency_ns) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  double ops_per_s() const { return seconds > 0 ? calls / seconds : 0; }
};

using Metrics = std::vector<std::pair<std::string, double>>;

/// The calls a run makes: `seconds` times the workload's calls per second
/// on the baseline host (lsmbench/BASELINE.json), so a run there measures
/// about `seconds`. A count rather than a deadline gives every timed phase
/// the same work: the workloads that write flush and compact the same
/// number of times however fast the calls go.
uint64_t CallsFor(Workload w, double seconds) {
  static constexpr double kBaselineCallsPerSecond[] = {
      200000,  // lookup_cold
      180000,  // write_mixed
      14000};  // serve_mixed, both clients together
  // At least one call per client in each set-up's share.
  return std::max<uint64_t>(
      kSetups * kServeClients,
      std::llround(seconds * kBaselineCallsPerSecond[static_cast<int>(w)]));
}

bool ParseWorkload(const std::string& name, Workload* w) {
  static const std::pair<const char*, Workload> kNames[] = {
      {"lookup_cold", Workload::kLookupCold},
      {"write_mixed", Workload::kWriteMixed},
      {"serve_mixed", Workload::kServeMixed}};
  for (const auto& [n, v] : kNames) {
    if (name == n) {
      *w = v;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Inputs: everything the engine receives is generated here, from the seed,
// before any timing starts.
// ---------------------------------------------------------------------------

Inputs MakeInputs(Workload w, uint64_t seed, size_t n) {
  Inputs in;
  lilsm::Random rnd(seed * 0x9E3779B97F4A7C15ull + 17);
  in.load_order.resize(n);
  for (size_t i = 0; i < n; i++) in.load_order[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; i--) {  // a YCSB-style shuffled load
    std::swap(in.load_order[i - 1], in.load_order[rnd.Uniform(i)]);
  }
  lilsm::ZipfGenerator zipf(n, kZipfTheta, seed + 1);
  auto zipf_key = [&] { return static_cast<uint32_t>(zipf.NextScrambled()); };
  switch (w) {
    case Workload::kLookupCold:
      in.stream.resize(kColdStream);
      for (Request& r : in.stream) {
        r = {static_cast<uint32_t>(rnd.Uniform(n)), Span::kGet};
      }
      break;
    case Workload::kWriteMixed:
      in.stream.resize(kWriteStream);
      for (Request& r : in.stream) {
        r = {zipf_key(), rnd.Uniform(2) == 0 ? Span::kPut : Span::kGet};
      }
      break;
    case Workload::kServeMixed:
      in.clients.resize(kServeClients);
      in.client_keys.resize(kServeClients);
      for (int c = 0; c < kServeClients; c++) {
        for (size_t j = 0; j < kServeStream; j++) {
          const bool write = rnd.Uniform(100) < 10;
          in.clients[c].push_back(
              {static_cast<uint32_t>(in.client_keys[c].size()),
               write ? Span::kWrite : Span::kMGet});
          for (size_t b = 0; b < kBatch; b++) {
            uint32_t key = zipf_key();
            if (write) {
              // Each key has one writing client (its owner, key % clients),
              // which is what lets the oracle bound concurrent reads.
              key = key - key % kServeClients + c;
              if (key >= n) key -= kServeClients;
            }
            in.client_keys[c].push_back(key);
          }
        }
      }
      break;
  }
  return in;
}

// ---------------------------------------------------------------------------
// Engine set-up and teardown.
// ---------------------------------------------------------------------------

struct Paths {
  std::string db, socket, server_log, spans;
};

DBOptions MakeOptions(Workload w, lilsm::Env* env) {
  DBOptions options;
  options.env = env;
  options.block_cache_bytes = w == Workload::kWriteMixed ? kWriteCacheBytes : 0;
  return options;
}

Status Load(const DBOptions& options, const std::string& dir,
            const Oracle& oracle, const std::vector<uint32_t>& order,
            std::unique_ptr<DB>* db) {
  std::filesystem::remove_all(dir);
  Status s = DB::Open(options, dir, db);
  WriteOptions bulk;
  bulk.disable_wal = true;
  char value[kValueSize];
  for (size_t i = 0; s.ok() && i < order.size(); i++) {
    const Key key = oracle.key(order[i]);
    FillValue(key, 0, value);
    s = (*db)->Put(bulk, key, Slice(value, kValueSize));
  }
  if (s.ok()) s = (*db)->FlushMemTable();
  if (s.ok()) s = (*db)->CompactUntilStable();
  return s;
}

/// Exact nearest-rank percentile in microseconds. lilsm's Histogram
/// interpolates inside log-spaced buckets 20% wide, too coarse to resolve
/// a change of a few percent.
double Percentile(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx] / 1000.0;
}

double Mean(const std::vector<uint32_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (uint32_t x : v) sum += x;
  return sum / v.size() / 1000.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Timed phases. Each closed loop times every call on its own, around the
// call alone; answers are checked after the clock stops.
// ---------------------------------------------------------------------------

/// Makes `calls` calls from the in-process stream, cycling through it.
Phase RunInProcess(DB* db, Oracle* oracle, const std::vector<Request>& stream,
                   uint64_t calls) {
  std::string value;
  char put_value[kValueSize];
  Phase phase;
  phase.Reserve(calls);
  const uint64_t start = NowNanos();
  uint64_t t1 = start;
  for (size_t j = 0; j < calls; j++) {
    const Request& r = stream[j % stream.size()];
    const Key key = oracle->key(r.key);
    const uint32_t version = oracle->acked(r.key);
    Status s;
    uint64_t t0;
    switch (r.op) {
      case Span::kGet: {
        t0 = NowNanos();
        {
          Tracer::Scope span(Span::kGet);
          s = db->Get(ReadOptions(), key, &value);
        }
        t1 = NowNanos();
        if (s.ok()) phase.wrong = CheckValue(key, version, version, value);
        break;
      }
      default: {  // Span::kPut
        const uint32_t next = oracle->BeginWrite(r.key);
        FillValue(key, next, put_value);
        t0 = NowNanos();
        {
          Tracer::Scope span(Span::kPut);
          s = db->Put(WriteOptions(), key, Slice(put_value, kValueSize));
        }
        t1 = NowNanos();
        if (s.ok()) oracle->Ack(r.key, next);
        phase.puts++;
        break;
      }
    }
    phase.Record(r.op, t0, t1);
    if (s.IsNotFound()) {
      phase.wrong = "NotFound for loaded key " + std::to_string(key);
    } else if (!s.ok()) {
      phase.failed++;
    }
    if (!phase.wrong.empty()) break;
  }
  phase.seconds = (t1 - start) / 1e9;
  return phase;
}

void ServeClient(const std::string& socket, Oracle* oracle,
                 const std::vector<Request>& stream,
                 const std::vector<uint32_t>& stream_keys, uint64_t calls,
                 std::atomic<bool>* stop, Phase* phase) {
  std::unique_ptr<lilsm::Client> client;
  if (!lilsm::Client::Connect(socket, &client).ok()) {
    phase->calls++;
    phase->failed++;
    return;
  }
  std::vector<Key> keys(kBatch);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  std::array<uint32_t, kBatch> versions;
  lilsm::WriteBatch batch;
  char value[kValueSize];
  for (size_t j = 0; j < calls && !stop->load(); j++) {
    const Request& r = stream[j % stream.size()];
    const uint32_t* idx = &stream_keys[r.key];
    for (size_t b = 0; b < kBatch; b++) keys[b] = oracle->key(idx[b]);
    Status s;
    uint64_t t0, t1;
    if (r.op == Span::kMGet) {
      for (size_t b = 0; b < kBatch; b++) versions[b] = oracle->acked(idx[b]);
      t0 = NowNanos();
      {
        Tracer::Scope span(Span::kMGet);
        s = client->MultiGet(lilsm::ClientReadOptions(), keys, &values,
                             &statuses);
      }
      t1 = NowNanos();
      for (size_t b = 0; s.ok() && b < kBatch && phase->wrong.empty(); b++) {
        if (statuses[b].IsNotFound()) {
          phase->wrong = "NotFound for loaded key " + std::to_string(keys[b]);
        } else if (!statuses[b].ok()) {
          s = statuses[b];
        } else {
          phase->wrong = CheckValue(keys[b], versions[b],
                                    oracle->pending(idx[b]), values[b]);
        }
      }
    } else {
      batch.Clear();
      for (size_t b = 0; b < kBatch; b++) {
        versions[b] = oracle->BeginWrite(idx[b]);
        FillValue(keys[b], versions[b], value);
        batch.Put(keys[b], Slice(value, kValueSize));
      }
      t0 = NowNanos();
      {
        Tracer::Scope span(Span::kWrite);
        s = client->Write(lilsm::ClientWriteOptions(), batch);
      }
      t1 = NowNanos();
      if (s.ok()) {
        for (size_t b = 0; b < kBatch; b++) oracle->Ack(idx[b], versions[b]);
      }
      phase->puts += kBatch;
    }
    phase->Record(r.op, t0, t1);
    if (!s.ok()) phase->failed++;
    if (!phase->wrong.empty()) stop->store(true);
  }
}

/// Makes `calls` calls over the wire, split evenly across the clients.
Phase RunServed(const std::string& socket, Oracle* oracle, const Inputs& in,
                uint64_t calls) {
  std::atomic<bool> stop{false};
  const uint64_t per_client_calls = calls / kServeClients;
  std::vector<Phase> per_client(kServeClients);
  for (Phase& p : per_client) p.Reserve(per_client_calls);
  const uint64_t start = NowNanos();
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; c++) {
    threads.emplace_back(ServeClient, std::cref(socket), oracle,
                         std::cref(in.clients[c]), std::cref(in.client_keys[c]),
                         per_client_calls, &stop, &per_client[c]);
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.seconds = (NowNanos() - start) / 1e9;
  for (const Phase& p : per_client) phase.Merge(p);
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

Span ReadOp(Workload w) {
  return w == Workload::kServeMixed ? Span::kMGet : Span::kGet;
}

/// A timed metric of the untraced run, whose calls are split evenly
/// across the set-ups: the value of the best set-up's share. Every share
/// makes the same calls on a freshly loaded tree, so the inline engine
/// flushes and compacts the same number of times in each; other tenants
/// of a shared host only ever slow a share down, so the best one is the
/// closest to the code's own cost.
double BestSetUp(const std::vector<double>& values, bool higher_is_better) {
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

void AddEndToEnd(Workload w, const std::vector<Phase>& parts, double setup_s,
                 double index_mem, double space_amp, double peak_rss_kib,
                 Metrics* m) {
  const int read = static_cast<int>(ReadOp(w));
  std::vector<double> ops, read_p50, read_p99, call_p99;
  for (const Phase& part : parts) {
    ops.push_back(part.ops_per_s());
    read_p50.push_back(Percentile(part.latency_ns[read], 0.50));
    read_p99.push_back(Percentile(part.latency_ns[read], 0.99));
    call_p99.push_back(Percentile(part.AllLatencies(), 0.99));
    std::fprintf(stderr,
                 "set-up share: ops=%.1f read_p50=%.3f read_p99=%.3f "
                 "call_p99=%.3f\n",
                 ops.back(), read_p50.back(), read_p99.back(),
                 call_p99.back());
  }
  m->emplace_back("setup_s", setup_s);
  m->emplace_back("ops_per_s", BestSetUp(ops, true));
  m->emplace_back("read_p50_us", BestSetUp(read_p50, false));
  m->emplace_back("read_p99_us", BestSetUp(read_p99, false));
  m->emplace_back("call_p99_us", BestSetUp(call_p99, false));
  m->emplace_back("index_mem_bytes", index_mem);
  m->emplace_back("space_amp", space_amp);
  m->emplace_back("peak_rss_mb", peak_rss_kib / 1024.0);
}

void PrintLatencies(const char* label, const Phase& phase) {
  std::fprintf(stderr, "%s: %.0f calls/s over %.2f s, %llu calls, %llu failed\n",
               label, phase.ops_per_s(), phase.seconds,
               static_cast<unsigned long long>(phase.calls),
               static_cast<unsigned long long>(phase.failed));
  for (int op = 0; op < kNumOps; op++) {
    const auto& v = phase.latency_ns[op];
    if (v.empty()) continue;
    std::fprintf(stderr,
                 "  %-8s n=%-9zu p50=%9.3f us  p99=%9.3f us  p99.9=%9.3f us\n",
                 SpanName(Span(op)), v.size(), Percentile(v, 0.5), Percentile(v, 0.99),
                 Percentile(v, 0.999));
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddPerLayer(const Phase& untraced, const Phase& traced,
                 const StatsDump& st,
                 const std::array<SpanTotals, kNumSpans>& spans,
                 double ping_p50_us, Metrics* m) {
  auto span = [&](Span s) -> const SpanTotals& {
    return spans[static_cast<int>(s)];
  };
  auto mean_self_us = [&](Span s) {
    return Ratio(span(s).self_ns / 1000.0, span(s).count);
  };
  const int get = static_cast<int>(Span::kGet);

  // Client calls, from the untraced phase.
  static const std::pair<const char*, Span> kOps[] = {
      {"get", Span::kGet}, {"put", Span::kPut},
      {"mget", Span::kMGet}, {"write", Span::kWrite}};
  for (const auto& [name, op] : kOps) {
    const std::vector<uint32_t>& v = untraced.latency_ns[static_cast<int>(op)];
    m->emplace_back(std::string(name) + "_p50_us", Percentile(v, 0.50));
    m->emplace_back(std::string(name) + "_p99_us", Percentile(v, 0.99));
  }
  m->emplace_back("error_rate",
                  Ratio(untraced.failed + traced.failed,
                        untraced.calls + traced.calls));

  // util/env, from the Env decorator's spans.
  const double gets = span(Span::kGet).count;
  m->emplace_back("env.reads_per_get",
                  Ratio(span(Span::kEnvRead).count_by_root[get], gets));
  m->emplace_back("env.read_bytes_per_get",
                  Ratio(span(Span::kEnvRead).bytes_by_root[get], gets));
  m->emplace_back("env.read_us", mean_self_us(Span::kEnvRead));
  m->emplace_back("env.write_amp", Ratio(span(Span::kEnvAppend).bytes,
                                         traced.puts * double{kEntryBytes}));
  m->emplace_back("env.append_us", mean_self_us(Span::kEnvAppend));
  m->emplace_back("env.syncs", span(Span::kEnvSync).count);
  m->emplace_back("env.sync_us", mean_self_us(Span::kEnvSync));

  // Engine Stats: per-get ratios are per key point-looked-up.
  const double lookups = st.count("point_lookups") + st.count("multiget_keys");
  const double hits = st.count("block_cache_hits");
  m->emplace_back("cache.hit_rate",
                  Ratio(hits, hits + st.count("block_cache_misses")));
  m->emplace_back("cache.evictions", st.count("block_cache_evictions"));
  const double negatives = st.count("bloom_negatives");
  const double false_pos = st.count("bloom_false_positive");
  m->emplace_back("bloom.probes_per_get",
                  Ratio(st.timer("bloom_check").n, lookups));
  m->emplace_back("bloom.probe_us", st.timer("bloom_check").mean_us);
  m->emplace_back("bloom.fp_rate", Ratio(false_pos, false_pos + negatives));
  m->emplace_back("index.predicts_per_get",
                  Ratio(st.timer("index_predict").n, lookups));
  m->emplace_back("index.predict_us", st.timer("index_predict").mean_us);
  m->emplace_back("index.train_ms", st.timer("compact_train").total_ms);
  m->emplace_back("index.models_trained", st.count("models_trained"));
  m->emplace_back("table.tables_per_get",
                  Ratio(st.count("tables_consulted"), lookups));
  m->emplace_back("table.lookup_us", st.timer("table_lookup").mean_us);
  m->emplace_back("table.segments_per_get",
                  Ratio(st.count("segments_fetched"), lookups));
  m->emplace_back("table.search_us", st.timer("binary_search").mean_us);
  m->emplace_back("table.fetch_us", st.timer("disk_read").mean_us);
  m->emplace_back("lsm.memtable_get_us", st.timer("memtable_get").mean_us);
  m->emplace_back("lsm.flushes", st.count("flushes"));
  m->emplace_back("lsm.compactions", st.count("compactions"));
  m->emplace_back("lsm.compaction_ms", st.timer("compact_total").total_ms);
  m->emplace_back("lsm.compact_io_ms", st.timer("compact_kv_io").total_ms);
  m->emplace_back("lsm.write_model_ms",
                  st.timer("compact_write_model").total_ms);
  m->emplace_back("lsm.stalls",
                  st.count("write_stalls") + st.count("write_slowdowns"));
  m->emplace_back("lsm.multiget_us", st.timer("multiget").mean_us);
  m->emplace_back("lsm.group_size", Ratio(st.count("group_commit_batch_size"),
                                          st.count("group_commits")));
  const double requests = st.count("server_requests");
  m->emplace_back("server.queue_us", st.timer("server_queue").mean_us);
  m->emplace_back("server.requests", requests);
  m->emplace_back("server.bytes_in_per_req",
                  Ratio(st.count("server_bytes_in"), requests));
  m->emplace_back("server.bytes_out_per_req",
                  Ratio(st.count("server_bytes_out"), requests));

  // The client side of a served MultiGet: what the server's queue wait
  // and DB::MultiGet do not explain (wire, codec, epoll loop, scheduling).
  // The server's Stats cover the traced phase, so the round trips do too.
  const std::vector<uint32_t>& mgets =
      traced.latency_ns[static_cast<int>(Span::kMGet)];
  m->emplace_back("client.ping_p50_us", ping_p50_us);
  m->emplace_back("client.unattributed_us",
                  mgets.empty() ? 0
                                : Mean(mgets) - st.timer("server_queue").mean_us -
                                      st.timer("multiget").mean_us);

  m->emplace_back("trace.overhead_frac",
                  Ratio(untraced.ops_per_s() - traced.ops_per_s(),
                        untraced.ops_per_s()));
  for (int s = 0; s < kNumSpans; s++) {
    const std::string prefix = std::string("span.") + SpanName(Span(s));
    m->emplace_back(prefix + ".self_us", mean_self_us(Span(s)));
    m->emplace_back(prefix + ".count", spans[s].count);
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics, const std::string& error) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  metrics[i].first.c_str(), metrics[i].second);
    json += buf;
  }
  json += "}, \"error\": \"";
  for (char c : error) {
    if (c == '"' || c == '\\') json += '\\';
    json += (c == '\n' ? ' ' : c);
  }
  json += "\"}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

/// What a set-up leaves running: the in-process DB, or the server.
struct Engine {
  std::unique_ptr<DB> db;
  std::unique_ptr<ServerProcess> server;
  double ping_p50_us = 0;
};

class Run {
 public:
  Run(const Args& args, Workload w)
      : args_(args), w_(w),
        oracle_(lilsm::GenerateKeys(lilsm::Dataset::kRandom, args.keys,
                                    args.seed)),
        in_(MakeInputs(w, args.seed, args.keys)) {
    paths_.db = args.work_dir + "/db";
    paths_.socket = args.work_dir + "/lilsm.sock";
    paths_.server_log = args.work_dir + "/server.log";
    paths_.spans = args.work_dir + "/spans-" + args.workload + "-" +
                   std::to_string(args.seed) + ".tsv";
  }

  /// Returns the process exit code.
  int Execute();

 private:
  Status SetUp(Engine* e, double* seconds);
  Status Reopen(Engine* e, lilsm::Env* env);
  Status Measure(Engine* e, Phase* out, uint64_t calls);
  Status Finish(Engine* e, StatsDump* server_stats);
  Status CheckReopened(uint64_t* index_mem);
  Status Fail(const std::string& what) {
    error_ = what;
    return Status::Corruption(what);
  }

  const Args& args_;
  const Workload w_;
  Oracle oracle_;
  const Inputs in_;
  Paths paths_;
  std::string error_;  // the first wrong answer
  double index_mem_ = 0;
  double space_amp_ = 0;
  double peak_rss_kib_ = 0;
};

Status Run::SetUp(Engine* e, double* seconds) {
  const uint64_t t0 = NowNanos();
  Status s = Load(MakeOptions(w_, lilsm::Env::Default()), paths_.db, oracle_,
                  in_.load_order, &e->db);
  if (s.ok() && w_ == Workload::kServeMixed) {
    e->db.reset();
    s = ServerProcess::Launch(args_.server_bin, paths_.db, paths_.socket,
                              paths_.server_log, &e->server);
    if (s.ok()) s = e->server->WaitForPing(kServerTimeoutS);
  }
  *seconds = (NowNanos() - t0) / 1e9;
  if (s.ok() && w_ == Workload::kServeMixed) {
    std::unique_ptr<lilsm::Client> client;
    s = lilsm::Client::Connect(paths_.socket, &client);
    std::vector<uint32_t> pings;
    for (int i = 0; s.ok() && i < 200; i++) {
      const uint64_t p0 = NowNanos();
      s = client->Ping();
      pings.push_back(static_cast<uint32_t>(NowNanos() - p0));
    }
    e->ping_p50_us = Percentile(pings, 0.5);
  }
  return s;
}

/// Closes the in-process DB and opens it again on `env`, with its Stats
/// reset. The server of serve_mixed is left as it is.
Status Run::Reopen(Engine* e, lilsm::Env* env) {
  if (w_ == Workload::kServeMixed) return Status::OK();
  e->db.reset();
  Status s = DB::Open(MakeOptions(w_, env), paths_.db, &e->db);
  if (s.ok()) e->db->stats()->Reset();
  return s;
}

/// The checks and measurements after the timed phases: index memory,
/// bytes on disk, peak RSS, and (write_mixed, serve_mixed) a full pass
/// over the reopened DB.
Status Run::Finish(Engine* e, StatsDump* server_stats) {
  Status s;
  uint64_t index_mem = 0;
  if (w_ == Workload::kServeMixed) {
    peak_rss_kib_ = e->server->PeakRssKiB();
    std::string log;
    s = e->server->Stop(kServerTimeoutS, &log);
    e->server.reset();
    *server_stats = ParseStatsDump(log);
  } else {
    index_mem = e->db->TotalIndexMemory();
    e->db.reset();
    peak_rss_kib_ = PeakRssKiB("self");
  }
  if (!s.ok()) return s;
  space_amp_ = DirBytes(paths_.db) / double(oracle_.size() * kEntryBytes);
  if (w_ == Workload::kWriteMixed || w_ == Workload::kServeMixed) {
    s = CheckReopened(&index_mem);
  }
  index_mem_ = index_mem;
  return s;
}

Status Run::CheckReopened(uint64_t* index_mem) {
  std::unique_ptr<DB> db;
  Status s = DB::Open(MakeOptions(w_, lilsm::Env::Default()), paths_.db, &db);
  if (!s.ok()) return s;
  std::unique_ptr<lilsm::Iterator> it = db->NewIterator(ReadOptions());
  const std::string err = CheckFullPass(oracle_, it.get());
  if (!err.empty()) return Fail("after reopen: " + err);
  if (w_ == Workload::kServeMixed) *index_mem = db->TotalIndexMemory();
  return Status::OK();
}

Status Run::Measure(Engine* e, Phase* out, uint64_t calls) {
  *out = w_ == Workload::kServeMixed
             ? RunServed(paths_.socket, &oracle_, in_, calls)
             : RunInProcess(e->db.get(), &oracle_, in_.stream, calls);
  if (!out->wrong.empty()) return Fail(out->wrong);
  return Status::OK();
}

int Run::Execute() {
  std::filesystem::create_directories(args_.work_dir);
  // The untraced run sets up kSetups times: setup_s is the median, and
  // the calls are split evenly across the set-ups (see BestSetUp). The
  // traced run sets up twice and makes every call after each set-up: the
  // untraced reference, then the traced phase. Both first reopen the DB,
  // on Env::Default() and then on TracingEnv, so the two start from the
  // same state and trace.overhead_frac compares like with like.
  const int setups = args_.trace ? 2 : kSetups;
  const uint64_t total_calls = CallsFor(w_, args_.seconds);
  const uint64_t calls = args_.trace ? total_calls : total_calls / kSetups;
  std::unique_ptr<lilsm::Env> tracing_env;  // outlives the engine's DB
  if (args_.trace) tracing_env = NewTracingEnv(lilsm::Env::Default());
  Engine engine;
  Status s;
  std::vector<Phase> phases;  // one timed phase per set-up
  std::vector<double> setup_times;
  StatsDump stats;
  for (int i = 0; s.ok() && i < setups; i++) {
    const bool traced = args_.trace && i == 1;
    if (engine.server != nullptr) {
      std::string log;
      s = engine.server->Stop(kServerTimeoutS, &log);
    }
    engine = Engine();
    oracle_.Reset();
    double seconds = 0;
    if (s.ok()) s = SetUp(&engine, &seconds);
    setup_times.push_back(seconds);
    std::fprintf(stderr, "set-up %d: %.3f s, VmHWM %.1f MiB\n", i, seconds,
                 PeakRssKiB("self") / 1024.0);
    if (s.ok() && args_.trace) {
      s = Reopen(&engine, traced ? tracing_env.get() : lilsm::Env::Default());
    }
    phases.emplace_back();
    if (!s.ok()) break;
    if (traced) Tracer::Enable(kKeptSpans);
    s = Measure(&engine, &phases.back(), calls);
    Tracer::Disable();
    PrintLatencies(traced ? "traced" : "untraced", phases.back());
    if (traced && engine.db != nullptr) {
      stats = ParseStatsDump(engine.db->stats()->ToString());
    }
  }
  if (s.ok()) s = Finish(&engine, &stats);
  if (args_.trace && !Tracer::WriteSpans(paths_.spans)) {
    std::fprintf(stderr, "cannot write %s\n", paths_.spans.c_str());
  }

  Metrics metrics;
  if (args_.trace) {
    AddPerLayer(phases.front(), phases.back(), stats, Tracer::Totals(),
                engine.ping_p50_us, &metrics);
  } else {
    AddEndToEnd(w_, phases, Median(setup_times), index_mem_, space_amp_,
                peak_rss_kib_, &metrics);
  }
  engine = Engine();  // closes what a failed run left open
  std::error_code ignored;
  std::filesystem::remove_all(paths_.db, ignored);
  if (!s.ok() && error_.empty()) {
    // Not a wrong answer: the run could not complete.
    std::fprintf(stderr, "lsmbench: %s\n", s.ToString().c_str());
    return 2;
  }
  uint64_t attempted = 0, failed = 0;
  for (const Phase& phase : phases) {
    attempted += phase.calls;
    failed += phase.failed;
  }
  PrintResult(error_.empty(), attempted, failed, metrics, error_);
  return error_.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Checker self-test: correct answers pass, and a deliberately wrong
// expected value (the checker's input, never the engine) is rejected.
// ---------------------------------------------------------------------------

int SelfTestChecker(const Args& args) {
  int checks = 0, failures = 0;
  auto expect = [&](bool ok, const char* what) {
    checks++;
    if (!ok) {
      failures++;
      std::fprintf(stderr, "checker self-test FAILED: %s\n", what);
    }
  };

  const size_t n = 500;
  Oracle oracle(lilsm::GenerateKeys(lilsm::Dataset::kRandom, n, 7));
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; i++) order[i] = static_cast<uint32_t>(i);
  const std::string dir = args.work_dir + "/selftest";
  std::filesystem::create_directories(args.work_dir);
  std::unique_ptr<DB> db;
  Status s = Load(MakeOptions(Workload::kWriteMixed, lilsm::Env::Default()),
                  dir, oracle, order, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "self-test load: %s\n", s.ToString().c_str());
    return 2;
  }
  // Update one key twice so versions above 0 are exercised.
  const size_t updated = 42;
  char value[kValueSize];
  for (int i = 0; i < 2; i++) {
    const uint32_t v = oracle.BeginWrite(updated);
    FillValue(oracle.key(updated), v, value);
    s = db->Put(WriteOptions(), oracle.key(updated), Slice(value, kValueSize));
    expect(s.ok(), "put");
    oracle.Ack(updated, v);
  }

  std::string got;
  expect(db->Get(ReadOptions(), oracle.key(7), &got).ok(), "get");
  expect(CheckValue(oracle.key(7), 0, 0, got).empty(), "loaded value accepted");
  expect(!CheckValue(oracle.key(7), 1, 1, got).empty(),
         "wrong expected version rejected");
  expect(!CheckValue(oracle.key(8), 0, 0, got).empty(),
         "another key's value rejected");
  expect(db->Get(ReadOptions(), oracle.key(updated), &got).ok(), "get");
  expect(CheckValue(oracle.key(updated), 2, 2, got).empty(),
         "updated value accepted");
  expect(CheckValue(oracle.key(updated), 1, 3, got).empty(),
         "version inside a concurrent range accepted");
  expect(!CheckValue(oracle.key(updated), 0, 1, got).empty(),
         "version outside a concurrent range rejected");
  expect(!CheckValue(oracle.key(updated), 0, 0, got).empty(),
         "stale expected version rejected");

  db.reset();
  s = DB::Open(MakeOptions(Workload::kWriteMixed, lilsm::Env::Default()), dir,
               &db);
  expect(s.ok(), "reopen");
  if (s.ok()) {
    auto it = db->NewIterator(ReadOptions());
    expect(CheckFullPass(oracle, it.get()).empty(), "full pass accepted");
    Oracle stale(oracle.keys());  // expects version 0 for the updated key
    expect(!CheckFullPass(stale, it.get()).empty(),
           "full pass against a stale oracle rejected");
    std::vector<Key> fewer = oracle.keys();
    fewer.pop_back();
    Oracle missing(fewer);
    expect(!CheckFullPass(missing, it.get()).empty(),
           "full pass with an unexpected extra key rejected");
  }
  db.reset();
  std::filesystem::remove_all(dir);
  std::fprintf(stderr, "checker self-test: %d/%d checks passed\n",
               checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--selftest-checker") {
      args->selftest_checker = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--server-bin") {
      args->server_bin = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--keys") {
      args->keys = std::strtoull(value, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return true;
}

}  // namespace
}  // namespace lsmbench

int main(int argc, char** argv) {
  using namespace lsmbench;
  Args args;
  Workload w = Workload::kLookupCold;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "lsmbench: bad arguments (see lsmbench.cc)\n");
    return 2;
  }
  if (args.selftest_checker) return SelfTestChecker(args);
  if (!ParseWorkload(args.workload, &w) || args.seconds <= 0 ||
      args.keys < kServeClients || args.keys > UINT32_MAX ||
      (w == Workload::kServeMixed && args.server_bin.empty())) {
    std::fprintf(stderr, "lsmbench: bad arguments (see lsmbench.cc)\n");
    return 2;
  }
  Run run(args, w);
  return run.Execute();
}
