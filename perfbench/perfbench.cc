// perfbench: runs the workloads behind perfbench/run.py.
//
// Runs one workload against the library's public API for a fixed time,
// checks every output, and writes the raw measurements (result.json) and,
// in a traced run, the spans recorded around each layer call
// (spans.jsonl) into --out. run.py turns them into the reported metrics;
// perfbench/README.md defines the workloads and the metrics.
//
//   perfbench --workload serve-read|serve-churn|mesh-catchup --seed N
//             --seconds S --trace 0|1 --out DIR
//
// All inputs (the canonical set, the replica pool, every write batch)
// are generated from --seed before the clock starts; the library sees
// only the generated inputs, so a seed fixes the sequence of operations.
// In a traced run the operations alternate between untraced and traced
// half-second slices, which gives the tracing overhead from one run.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "hash/mix.h"
#include "net/tcp.h"
#include "obs/clock.h"
#include "recon/driver.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/mesh.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sketch_store.h"
#include "server/sync_client.h"
#include "transport/channel.h"
#include "util/random.h"
#include "workload/churn.h"
#include "workload/generator.h"

#include "trace.h"

namespace rsr {
namespace perfbench {
namespace {

// ------------------------------------------------------------ parameters
// Shared by all workloads: one canonical set shape and one protocol
// context (public coins, fixed so that only the data varies with --seed).
constexpr size_t kSetSize = 2048;
constexpr int kDim = 2;
constexpr int64_t kDelta = int64_t{1} << 14;
constexpr uint64_t kContextSeed = 0x5eedc0de;

// serve-read / serve-churn.
constexpr char kServeProtocol[] = "quadtree";
constexpr size_t kPoolSize = 64;
constexpr double kReplicaNoise = 1.0;
constexpr size_t kReplicaOutliers = 4;
constexpr size_t kClients = 2;
constexpr size_t kShards = 2;
// 10% batches at 40 writes/s hold the store's mutex for about a third of
// the load, and about 30% of the syncs wait for a batch: the sync p90 then
// lies inside that waiting mode and follows the time a batch takes. With
// 10% at 10/s only ~13% of the syncs waited, which put the p90 on the
// edge of the mode, where it jumped with the machine's load (spread over
// ten seeds: 36%).
constexpr double kChurnFraction = 0.10;
constexpr int64_t kWritePeriodNs = 25'000'000;  // 40 writes/s

// mesh-catchup.
constexpr size_t kMeshNodes = 3;
constexpr size_t kBatchesPerCycle = 8;
constexpr size_t kPointsPerBatch = 8;
constexpr size_t kTailEvery = 2;  // node 1 rounds after every 2nd batch
constexpr size_t kRingCapacity = 4;
// Sized so the repair's headroom-scaled strata estimate of a cycle's
// difference (at most 2 * 8 * 8 = 128 points; estimates seen: 84-312)
// stays inside the exact-key band.
constexpr size_t kMeshRibltK = 384;
constexpr size_t kMaxExtraRounds = 4;
// The first cycles form the fixed prefix whose bytes must repeat exactly
// for one seed; a run always completes at least this many.
constexpr size_t kMinCycles = 64;

// setup_s samples: one build and start of the workload's host(s) every
// period, from the start of the load to the end of the window, on a thread
// of its own. On the shared machine the benchmark was sized on, a single
// host build took either ~11 ms or ~17 ms, with the slow mode switching
// in and out within a second and making up about half of the builds; the
// mode is the other tenants' (it showed in the thread's CPU time as much
// as in wall time, without steal time or page faults behind it). Builds
// spread over the run see both modes in their usual shares, and run.py
// reports the slow mode, whose speed moves less with the machine's load
// than the fast mode's share and speed do.
constexpr int64_t kServeSetupPeriodNs = 500'000'000;
constexpr int64_t kMeshSetupPeriodNs = 1'000'000'000;

// Untimed load before the measured window. Under sustained load the
// machine settles within a few seconds to a slower steady speed than it
// runs at from idle; the window measures that steady state.
constexpr int64_t kWarmupNs = 4'000'000'000;
// In a traced run, operations starting in odd slices are traced.
constexpr int64_t kTraceSliceNs = 500'000'000;
// Traced runs replay the store build this many times after the load.
constexpr size_t kBuildReplays = 5;
// And the recon layer on this many of the workload's own inputs.
constexpr size_t kMeshReplays = 16;
// Post-run oracle threads (the load has stopped by then).
constexpr size_t kCheckThreads = 3;

recon::ProtocolContext Context() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(kDelta, kDim);
  ctx.seed = kContextSeed;
  return ctx;
}

recon::ProtocolParams MeshParams() {
  recon::ProtocolParams params;
  params.riblt.k = kMeshRibltK;
  return params;
}

/// CPU time of the calling thread: a setup sample built beside the load
/// does not count the time it waits for a CPU.
int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(HashCombine(Mix64(seed), stream));
}

PointSet Canonical(uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = Context().universe;
  spec.n = kSetSize;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(SubSeed(seed, 1));
  return workload::GenerateCloud(spec, &rng);
}

/// A noisy replica: every point moved by Gaussian noise, plus outliers.
PointSet NoisyReplica(const PointSet& base, uint64_t seed) {
  const Universe universe = Context().universe;
  Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(workload::PerturbPoint(
        p, universe, workload::NoiseKind::kGaussian, kReplicaNoise, &rng));
  }
  for (size_t i = 0; i < kReplicaOutliers; ++i) {
    Point fresh(static_cast<size_t>(universe.d));
    for (int64_t& c : fresh) {
      c = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(universe.delta)));
    }
    replica[rng.Below(replica.size())] = std::move(fresh);
  }
  return replica;
}

/// Fingerprint of every ReconResult field bench::MatchesDriver compares:
/// bob_final counts only when the run succeeded.
uint64_t ResultDigest(const recon::ReconResult& r) {
  uint64_t h = HashCombine(0x9e3779b97f4a7c15ULL, r.success ? 1 : 0);
  h = HashCombine(h, static_cast<uint64_t>(r.error));
  h = HashCombine(h, static_cast<uint64_t>(static_cast<int64_t>(r.chosen_level)));
  h = HashCombine(h, r.decoded_entries);
  h = HashCombine(h, r.attempts);
  h = HashCombine(h, r.transmitted);
  if (r.success) {
    h = HashCombine(h, r.bob_final.size());
    for (const Point& p : r.bob_final) {
      for (const int64_t c : p) h = HashCombine(h, static_cast<uint64_t>(c));
    }
  }
  return h;
}

/// The conformance oracle: recon::DrivePair on fresh sessions, Bob built
/// from the plain point set (no sketch cache).
recon::ReconResult OracleResult(const std::string& protocol,
                                const recon::ProtocolParams& params,
                                const PointSet& alice_points,
                                const PointSet& bob_points) {
  const auto reconciler = recon::MakeReconciler(protocol, Context(), params);
  auto alice = reconciler->MakeAliceSession(alice_points);
  auto bob = reconciler->MakeBobSession(bob_points);
  transport::Channel channel;
  return recon::DrivePair(alice.get(), bob.get(), &channel);
}

/// Runs fn(i) for i in [0, n) on kCheckThreads threads.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------- output
struct OpRecord {
  int64_t start_ns = 0;
  double ms = 0.0;       ///< The operation's end-to-end latency.
  double work_ms = 0.0;  ///< Writes and rounds of a mesh cycle.
  int64_t bytes = 0;     ///< Bytes it moved.
  int64_t key = 0;       ///< Replica index (serve) or cycle index (mesh).
  bool traced = false;
};

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;

  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  std::vector<double> setup_s;
  std::vector<OpRecord> ops;
  /// The leading cycles whose bytes must repeat exactly (mesh-catchup).
  size_t prefix_cycles = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure reasons.

  /// Starts the clock: a warm-up, then the measured window.
  int64_t StartLoad() {
    const int64_t load_start = NowNs() + 20'000'000;
    window_start_ns = load_start + kWarmupNs;
    window_end_ns = window_start_ns + static_cast<int64_t>(seconds * 1e9);
    return load_start;
  }

  bool TracedAt(int64_t now_ns) const {
    return trace && now_ns >= window_start_ns &&
           ((now_ns - window_start_ns) / kTraceSliceNs) % 2 == 1;
  }

  void Fail(const std::string& reason) {
    ++failed;
    if (failures.size() < 20) failures.push_back(reason);
  }

  bool Write() const;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

bool Run::Write() const {
  const std::string path = out_dir + "/result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,",
               workload.c_str(), static_cast<unsigned long long>(seed),
               trace ? 1 : 0);
  std::fprintf(f, "\"window_s\":%.9f,",
               1e-9 * static_cast<double>(window_end_ns - window_start_ns));
  std::fprintf(f, "\"prefix_cycles\":%zu,", prefix_cycles);
  std::fprintf(f, "\"attempted\":%zu,\"failed\":%zu,\"failures\":[",
               attempted, failed);
  for (size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", JsonEscape(failures[i]).c_str());
  }
  std::fprintf(f, "],\"setup_s\":[");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? "," : "", setup_s[i]);
  }
  // ops: [start offset s, latency ms, bytes, key, traced, work ms]
  std::fprintf(f, "],\"ops\":[");
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    std::fprintf(f, "%s[%.9f,%.6f,%lld,%lld,%d,%.6f]", i ? "," : "",
                 1e-9 * static_cast<double>(op.start_ns - window_start_ns),
                 op.ms, static_cast<long long>(op.bytes),
                 static_cast<long long>(op.key), op.traced ? 1 : 0,
                 op.work_ms);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// Takes the setup_s samples beside the load (see kServeSetupPeriodNs):
/// every period_ns from load_start until the window ends, times `build()`,
/// which builds and starts the host(s), in the thread's CPU time, then
/// discards what it built. A build that returns null counts in *failures.
template <typename Build>
std::thread SampleSetup(Run* run, int64_t load_start, int64_t period_ns,
                        Build build, size_t* failures) {
  return std::thread([=] {
    for (int64_t due = load_start; due < run->window_end_ns; due += period_ns) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const int64_t t0 = ThreadCpuNs();
      auto built = build();
      run->setup_s.push_back(1e-9 * static_cast<double>(ThreadCpuNs() - t0));
      if (built == nullptr) ++*failures;
    }
  });
}

/// Traced-run replay of the store build on the workload's canonical set.
void ReplayStoreBuild(const PointSet& canonical,
                      const recon::ProtocolParams& params) {
  for (size_t i = 0; i < kBuildReplays; ++i) {
    OpScope op(true);
    server::SketchStoreOptions options;
    options.context = Context();
    options.params = params;
    SpanScope span("store.build");
    const server::SketchStore store(canonical, options);
  }
}

/// Traced-run replay of one reconciliation in-process, with Bob served
/// from `bob` (a store snapshot): Alice's sketch, Bob's cached side, and
/// the whole DrivePair. Returns false when the cached runs disagree with
/// `expected_digest` (the oracle's).
bool ReplayRecon(const std::string& protocol,
                 const recon::ProtocolParams& params,
                 const PointSet& alice_points,
                 const server::SketchSnapshot& bob,
                 uint64_t expected_digest) {
  OpScope op(true);
  const auto reconciler = recon::MakeReconciler(protocol, Context(), params);

  std::vector<transport::Message> to_bob;
  {
    SpanScope span("recon.alice_sketch");
    to_bob = reconciler->MakeAliceSession(alice_points)->Start();
    int64_t bytes = 0;
    for (const transport::Message& m : to_bob) {
      bytes += static_cast<int64_t>(m.payload.size());
    }
    span.set_bytes(bytes);
  }

  // Bob's side, cached sketches included. The benchmark's protocols are
  // one-shot: Bob finishes on Alice's opening frames (and when he does
  // not, his result differs from the oracle's).
  recon::ReconResult cached;
  {
    SpanScope span("recon.bob_cached");
    const auto session = reconciler->MakeBobSession(bob.points(), &bob);
    session->Start();
    for (transport::Message& m : to_bob) session->OnMessage(std::move(m));
    cached = session->TakeResult();
  }

  recon::ReconResult driven;
  {
    auto fresh_alice = reconciler->MakeAliceSession(alice_points);
    auto fresh_bob = reconciler->MakeBobSession(bob.points(), &bob);
    transport::Channel channel;
    SpanScope span("recon.drive");
    driven = recon::DrivePair(fresh_alice.get(), fresh_bob.get(), &channel);
    server::ResultFrame frame;
    frame.result = driven;
    frame.has_set = true;
    span.set_bytes(static_cast<int64_t>(
        server::EncodeResult(frame, Context().universe).payload.size()));
  }
  return ResultDigest(cached) == expected_digest &&
         ResultDigest(driven) == expected_digest;
}

// ------------------------------------------------------ serve workloads
struct SyncRecord {
  OpRecord op;
  bool session_ok = false;  ///< Handshake done, no transport error.
  bool decoded = false;     ///< result.success
  uint64_t generation = 0;
  uint64_t digest = 0;
};

int RunServe(Run* run, bool churn) {
  const recon::ProtocolParams params{};  // the library's defaults
  const PointSet canonical = Canonical(run->seed);
  std::vector<PointSet> pool(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    pool[i] = NoisyReplica(canonical, SubSeed(run->seed, 100 + i));
  }
  std::vector<size_t> order(kPoolSize);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng order_rng(SubSeed(run->seed, 2));
  for (size_t i = kPoolSize - 1; i > 0; --i) {
    std::swap(order[i], order[order_rng.Below(i + 1)]);
  }

  // Every write of the run, and the canonical set after each (the oracle's
  // input for syncs pinned to that generation).
  std::vector<workload::ChurnBatch> batches;
  std::vector<PointSet> generations{canonical};
  if (churn) {
    const size_t count =
        static_cast<size_t>((run->seconds * 1e9 + kWarmupNs) /
                            static_cast<double>(kWritePeriodNs)) + 2;
    workload::ChurnSpec spec;
    spec.fraction = kChurnFraction;
    spec.fresh_fraction = 0.0;
    Rng rng(SubSeed(run->seed, 3));
    PointSet current = canonical;
    for (size_t i = 0; i < count; ++i) {
      if (i % 2 == 0) {
        batches.push_back(workload::MakeChurnBatch(current, Context().universe,
                                                   spec, &rng));
      } else {
        // Undo the batch before, so the set stays within one batch of the
        // canonical set and every second of the load sees the same data.
        const workload::ChurnBatch& last = batches.back();
        batches.push_back({last.erases, last.inserts});
      }
      workload::ApplyChurnBatch(batches.back(), &current);
      generations.push_back(current);
    }
  }

  // Builds and starts a host on the canonical set: the serving host, and
  // each setup_s sample.
  server::AsyncSyncServerOptions options;
  options.context = Context();
  options.params = params;
  options.shards = kShards;
  const auto start_host = [&canonical, options] {
    auto started = std::make_unique<server::AsyncSyncServer>(canonical, options);
    if (!started->Start(net::TcpListener::Listen("127.0.0.1", 0))) {
      started.reset();
    }
    return started;
  };
  const std::unique_ptr<server::AsyncSyncServer> host = start_host();
  if (host == nullptr) {
    std::fprintf(stderr, "perfbench: cannot start the host\n");
    return 2;
  }
  const uint16_t port = host->port();
  const uint64_t base_generation = host->snapshot()->generation();

  const int64_t load_start = run->StartLoad();
  size_t setup_failures = 0;
  std::thread sampler = SampleSetup(run, load_start, kServeSetupPeriodNs,
                                    start_host, &setup_failures);
  std::vector<std::vector<SyncRecord>> records(kClients);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      server::SyncClientOptions client_options;
      client_options.context = Context();
      client_options.params = params;
      client_options.want_result_set = true;
      const server::SyncClient client(client_options);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(load_start)));
      for (size_t i = 0;; ++i) {
        const int64_t now = NowNs();
        if (now >= run->window_end_ns) break;
        const size_t replica = order[(kClients * i + t) % kPoolSize];
        OpScope op(run->TracedAt(now));
        if (op.traced()) {
          SpanScope span("store.snapshot");
          (void)host->snapshot();
        }
        SyncRecord rec;
        rec.op.key = static_cast<int64_t>(replica);
        rec.op.traced = op.traced();
        server::SyncOutcome outcome;
        rec.op.start_ns = NowNs();
        {
          SpanScope span("sync");
          std::unique_ptr<net::TcpStream> stream;
          {
            SpanScope connect("net.connect");
            stream = net::TcpStream::Connect("127.0.0.1", port);
          }
          if (stream != nullptr) {
            SpanScope sync("server.sync");
            outcome = client.Sync(stream.get(), kServeProtocol, pool[replica]);
            sync.set_bytes(static_cast<int64_t>(outcome.bytes_sent +
                                                outcome.bytes_received));
          }
        }
        const int64_t end = NowNs();
        rec.op.ms = 1e-6 * static_cast<double>(end - rec.op.start_ns);
        rec.op.bytes =
            static_cast<int64_t>(outcome.bytes_sent + outcome.bytes_received);
        rec.session_ok = outcome.handshake_ok && outcome.error_detail.empty();
        rec.decoded = outcome.result.success;
        rec.generation = outcome.server_generation;
        rec.digest = ResultDigest(outcome.result);
        records[t].push_back(rec);
      }
    });
  }

  // The open-loop writer: batch i is due at load start + i periods and is
  // timed from when it was due.
  size_t writes_done = 0;
  if (churn) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < batches.size(); ++i) {
        const int64_t due =
            load_start + static_cast<int64_t>(i) * kWritePeriodNs;
        if (due >= run->window_end_ns) break;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        OpScope op(run->TracedAt(due));
        std::shared_ptr<const server::SketchSnapshot> snap;
        {
          SpanScope write("load.write");
          write.set_start(due);
          SpanScope apply("store.apply");
          snap = host->ApplyUpdate(batches[i].inserts, batches[i].erases);
        }
        ++writes_done;
        if (snap->generation() != base_generation + i + 1 ||
            snap->points().size() != generations[i + 1].size()) {
          run->Fail("write " + std::to_string(i) +
                    ": unexpected generation or set size");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  sampler.join();
  if (setup_failures != 0) run->Fail("a setup_s host did not start");

  std::vector<SyncRecord> syncs;
  for (const auto& per_thread : records) {
    syncs.insert(syncs.end(), per_thread.begin(), per_thread.end());
  }
  run->attempted = syncs.size() + writes_done;
  size_t client_ok = 0, client_fail = 0;
  for (const SyncRecord& s : syncs) {
    if (s.session_ok) ++(s.decoded ? client_ok : client_fail);
  }

  // Counter cross-check: the host settles a session when its connection
  // closes, shortly after the client has its result.
  const obs::MetricsRegistry& registry = host->metrics_registry();
  const auto sessions = [&](const char* outcome) {
    return registry.CounterValue(
        "rsr_sync_sessions_total",
        {{"protocol", kServeProtocol}, {"outcome", outcome}});
  };
  for (int i = 0; i < 300; ++i) {
    if (sessions("ok") + sessions("fail") >= client_ok + client_fail) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (sessions("ok") != client_ok || sessions("fail") != client_fail) {
    run->Fail("host session counters ok=" + std::to_string(sessions("ok")) +
              " fail=" + std::to_string(sessions("fail")) +
              " but clients counted ok=" + std::to_string(client_ok) +
              " fail=" + std::to_string(client_fail));
  }
  const std::shared_ptr<const server::SketchSnapshot> final_snapshot =
      host->snapshot();
  const int64_t rebuilds =
      static_cast<int64_t>(registry.CounterValue("rsr_store_rebuilds_total"));
  host->Stop();

  // Every served result must equal the oracle on the generation it was
  // pinned to. One oracle run per (replica, generation index).
  using Key = std::pair<size_t, uint64_t>;
  std::set<Key> wanted;
  for (const SyncRecord& s : syncs) {
    const uint64_t index = s.generation - base_generation;
    if (s.session_ok && s.generation >= base_generation &&
        index < generations.size()) {
      wanted.emplace(static_cast<size_t>(s.op.key), index);
    }
  }
  // The traced replays check the final snapshot against its oracle too.
  const uint64_t final_index = final_snapshot->generation() - base_generation;
  if (run->trace) {
    for (size_t r = 0; r < kPoolSize; ++r) wanted.emplace(r, final_index);
  }
  const std::vector<Key> keys(wanted.begin(), wanted.end());
  std::vector<uint64_t> digests(keys.size());
  ParallelFor(keys.size(), [&](size_t i) {
    digests[i] = ResultDigest(OracleResult(kServeProtocol, params,
                                           pool[keys[i].first],
                                           generations[keys[i].second]));
  });
  std::map<Key, uint64_t> expected;
  for (size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = digests[i];

  for (const SyncRecord& s : syncs) {
    const uint64_t index = s.generation - base_generation;
    const auto it =
        expected.find(std::make_pair(static_cast<size_t>(s.op.key), index));
    if (!s.session_ok) {
      run->Fail("sync of replica " + std::to_string(s.op.key) +
                ": transport or handshake failure");
    } else if (it == expected.end()) {
      run->Fail("sync pinned to unknown generation " +
                std::to_string(s.generation));
    } else if (it->second != s.digest) {
      run->Fail("sync of replica " + std::to_string(s.op.key) +
                " differs from DrivePair on generation " +
                std::to_string(s.generation));
    }
    run->ops.push_back(s.op);
  }

  if (run->trace) {
    ReplayStoreBuild(canonical, params);
    for (size_t r = 0; r < kPoolSize; ++r) {
      const uint64_t digest = expected.at(std::make_pair(r, final_index));
      if (!ReplayRecon(kServeProtocol, params, pool[r], *final_snapshot,
                       digest)) {
        run->Fail("cached replay of replica " + std::to_string(r) +
                  " differs from DrivePair");
      }
    }
    Tracer::Get().Counter("store.rebuilds", rebuilds);
  }
  return 0;
}

// ------------------------------------------------------ mesh-catchup
/// The real monotonic clock read from an epoch 2^35 us in the past.
/// Changelog entries carry their append stamp as a varint, and the
/// library's own clock starts near 0 at process start, so its stamps grow
/// a byte wider at 2.1 s; from this epoch every stamp of the next 50 days
/// has the same width, and a seed's bytes do not depend on timing.
class FixedWidthClock : public obs::Clock {
 public:
  uint64_t NowMicros() override {
    return (uint64_t{1} << 35) + static_cast<uint64_t>(NowNs() / 1000);
  }
};

int RunMesh(Run* run) {
  const recon::ProtocolParams params = MeshParams();
  const PointSet canonical = Canonical(run->seed);

  replica::ReplicaMeshOptions options;
  options.nodes = kMeshNodes;
  options.use_tcp = true;
  options.node.server.context = Context();
  options.node.server.params = params;
  options.node.server.worker_threads = 1;
  options.node.changelog.capacity = kRingCapacity;
  // Round trace ids travel as varints; seeding them fixes their width.
  options.node.server.trace_seed = SubSeed(run->seed, 5);
  FixedWidthClock clock;
  options.node.server.clock = &clock;

  // Builds the mesh and starts its hosts: the workload's mesh, and each
  // setup_s sample.
  const auto start_mesh = [&canonical, options] {
    return std::make_unique<replica::ReplicaMesh>(canonical, options);
  };
  const std::unique_ptr<replica::ReplicaMesh> mesh = start_mesh();

  // Both followers pull from the writer, over fresh loopback connections.
  const uint16_t writer_port = mesh->node(0).host().port();
  const replica::StreamFactory writer_dialer =
      [writer_port]() -> std::unique_ptr<net::ByteStream> {
    SpanScope span("net.connect");
    return net::TcpStream::Connect("127.0.0.1", writer_port);
  };

  workload::ChurnSpec spec;
  spec.fraction = 0.0;
  spec.min_updates = kPointsPerBatch;
  spec.fresh_fraction = 0.0;
  Rng rng(SubSeed(run->seed, 4));
  PointSet mirror = canonical;  // the writer's set, kept by the benchmark
  run->prefix_cycles = kMinCycles;

  struct RepairInput {
    PointSet alice;  // the writer's set at the repair
    std::shared_ptr<const server::SketchSnapshot> bob;  // node 2 before it
  };
  std::vector<RepairInput> repairs;

  const int64_t load_start = run->StartLoad();
  size_t setup_failures = 0;
  std::thread sampler = SampleSetup(run, load_start, kMeshSetupPeriodNs,
                                    start_mesh, &setup_failures);
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(load_start)));
  for (size_t cycle = 0;; ++cycle) {
    const int64_t now = NowNs();
    if (now >= run->window_end_ns && cycle >= kMinCycles) break;
    std::vector<workload::ChurnBatch> batches;
    for (size_t b = 0; b < kBatchesPerCycle; ++b) {
      batches.push_back(
          workload::MakeChurnBatch(mirror, Context().universe, spec, &rng));
      workload::ApplyChurnBatch(batches.back(), &mirror);
    }

    OpScope op(run->TracedAt(now));
    OpRecord record;
    record.start_ns = NowNs();
    record.key = static_cast<int64_t>(cycle);
    record.traced = op.traced();
    int64_t catchup_ns = 0;
    int64_t work_ns = 0;  // writes and rounds; not the checks
    const auto round = [&](size_t node) {
      const int64_t t0 = NowNs();
      replica::RoundRecord r;
      {
        SpanScope span("replica.round");
        r = mesh->node(node).SyncWithPeer(writer_dialer, "node0");
        span.set_tag(replica::RoundPathName(r.path));
        span.set_bytes(static_cast<int64_t>(r.bytes_sent + r.bytes_received));
        span.set_items(static_cast<int64_t>(r.entries_applied));
      }
      const int64_t dt = NowNs() - t0;
      catchup_ns += dt;
      work_ns += dt;
      record.bytes += static_cast<int64_t>(r.bytes_sent + r.bytes_received);
      ++run->attempted;
      if (!r.ok) {
        run->Fail("cycle " + std::to_string(cycle) + ": node " +
                  std::to_string(node) + " round failed: " + r.error_detail);
      }
    };

    for (size_t b = 0; b < kBatchesPerCycle; ++b) {
      const int64_t t0 = NowNs();
      {
        SpanScope write("load.write");
        SpanScope apply("replica.write");
        mesh->node(0).Apply(batches[b].inserts, batches[b].erases);
      }
      work_ns += NowNs() - t0;
      ++run->attempted;
      if ((b + 1) % kTailEvery == 0) round(1);
    }
    if (op.traced() && repairs.size() < kMeshReplays) {
      RepairInput input{mirror, nullptr};
      {
        SpanScope span("store.snapshot");
        input.bob = mesh->node(2).snapshot();
      }
      repairs.push_back(std::move(input));
    }
    round(2);
    for (size_t extra = 0;
         extra < kMaxExtraRounds && mesh->MaxDivergence() != 0; ++extra) {
      round(2);
      round(1);
    }
    if (mesh->MaxDivergence() != 0 ||
        replica::SetDivergence(mesh->node(0).points(), mirror) != 0) {
      run->Fail("cycle " + std::to_string(cycle) + ": mesh not converged");
    }
    record.ms = 1e-6 * static_cast<double>(catchup_ns);
    record.work_ms = 1e-6 * static_cast<double>(work_ns);
    run->ops.push_back(record);
  }
  sampler.join();
  if (setup_failures != 0) run->Fail("a setup_s mesh did not start");

  if (run->trace) {
    ReplayStoreBuild(canonical, params);
    const std::string protocol =
        replica::ReplicaNodeOptions{}.repair_exact_protocol;
    std::vector<uint64_t> oracle(repairs.size());
    ParallelFor(repairs.size(), [&](size_t i) {
      oracle[i] = ResultDigest(OracleResult(protocol, params, repairs[i].alice,
                                            repairs[i].bob->points()));
    });
    for (size_t i = 0; i < repairs.size(); ++i) {
      if (!ReplayRecon(protocol, params, repairs[i].alice, *repairs[i].bob,
                       oracle[i])) {
        run->Fail("cached repair replay " + std::to_string(i) +
                  " differs from DrivePair");
      }
    }
    int64_t rebuilds = 0;
    for (size_t i = 0; i < mesh->size(); ++i) {
      rebuilds += static_cast<int64_t>(
          mesh->node(i).host().metrics_registry().CounterValue(
              "rsr_store_rebuilds_total"));
    }
    Tracer::Get().Counter("store.rebuilds", rebuilds);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-read|serve-churn|"
               "mesh-catchup --seed N --seconds S --trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace rsr

int main(int argc, char** argv) {
  using namespace rsr::perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      run.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      run.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (run.out_dir.empty() || run.seconds <= 0.0) return Usage();

  int status = 0;
  if (run.workload == "serve-read") {
    status = RunServe(&run, /*churn=*/false);
  } else if (run.workload == "serve-churn") {
    status = RunServe(&run, /*churn=*/true);
  } else if (run.workload == "mesh-catchup") {
    status = RunMesh(&run);
  } else {
    return Usage();
  }
  if (status != 0) return status;
  if (!run.Write()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", run.out_dir.c_str());
    return 2;
  }
  if (run.trace &&
      !Tracer::Get().WriteJsonl(run.out_dir + "/spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write spans\n");
    return 2;
  }
  return 0;
}
