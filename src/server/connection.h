// The serving logic both sync hosts share, written once: the host state a
// connection is served from (SyncHost) and the per-connection state
// machine that serves it (Connection).
//
// A served connection opens with one verb — "@hello" (a Bob session over
// the canonical set), "@pull" (an Alice session the caller runs Bob
// against), "@log-fetch" (one changelog slice) or "@stats" (one metrics
// rendering) — and everything after that opening is the same computation
// whichever host carries the bytes. Connection is that computation with no
// I/O in it: the host feeds it decoded frames, the end of the read side
// and idle expiry, and it emits frames through a sink the host wires to
// its socket. The hosts (server/sync_server.h, server/async_sync_server.h)
// are I/O drivers only — a blocking pump on a worker thread, or a reactor
// shard — so both serve every verb with identical frames on the wire.
// See DESIGN.md §6.

#ifndef RSR_SERVER_CONNECTION_H_
#define RSR_SERVER_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/frame.h"
#include "net/tcp.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/changelog.h"
#include "server/server_obs.h"
#include "server/server_stats.h"
#include "server/sketch_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

/// Options every host takes (SyncServerOptions and AsyncSyncServerOptions
/// add only their I/O driver's knobs).
struct SyncHostOptions {
  /// Shared public coins; clients must be constructed with the same
  /// context or the hash-based sketches will not line up.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  net::FrameLimits limits;
  /// Runaway-protocol safeguard, as in recon::DrivePair; also bounds the
  /// frames discarded while draining after a connection's last reply.
  size_t max_deliveries = 1 << 16;
  /// Per-connection idle deadline: a connection with no traffic for this
  /// long is failed (SessionError::kTransportClosed) and counted in
  /// idle_timeouts. 0 disables. The threaded host arms it only where the
  /// transport can (ByteStream::SetReadTimeout — TCP yes, pipes no); the
  /// async host at event-loop tick granularity.
  std::chrono::milliseconds idle_timeout{0};
  /// Serve Bob sessions from the SketchStore's cached canonical sketches
  /// (computed once, maintained incrementally under ApplyUpdate) instead
  /// of rebuilding them from the set per connection. Results are
  /// bit-identical either way; false is the rebuild baseline measured by
  /// bench_e18_churn.
  bool serve_from_cache = true;
  /// Protocol registry to negotiate against; nullptr = the global one.
  const recon::ProtocolRegistry* registry = nullptr;
  /// When set, the host replicates: every ApplyUpdate is journaled here
  /// (write-through, under one lock with the store mutation), "@log-fetch"
  /// is served from it, and the host's replication position travels in
  /// every "@accept" and "@pull-accept". Not owned; must outlive the host.
  replica::Changelog* changelog = nullptr;
  /// Upper bound on entries per served "@log-batch" (a fetch's own
  /// max_entries only tightens it).
  size_t log_fetch_max_entries = 512;
  /// Gates the optional latency probes (worker-queue delay or
  /// accept-to-first-frame delay, event-loop and store apply latency).
  /// Session outcome counters and per-protocol latency histograms stay on
  /// regardless — DumpStats() is rebuilt from them.
  bool latency_probes = true;
  /// Per-session trace spans (obs/trace.h) are emitted here; null
  /// disables tracing. Not owned; must outlive the host.
  obs::TraceSink* trace_sink = nullptr;
  /// Keep/drop policy applied when a span finishes (errors and slow
  /// sessions are always kept). The default keeps everything.
  obs::TraceSamplingPolicy trace_sampling;
  /// Seed for trace ids minted for sessions that arrive without inbound
  /// context (0 = real entropy); tests pin it for replayable ids.
  uint64_t trace_seed = 0;
  /// Monotonic clock stamping changelog appends (replication-lag
  /// telemetry; DESIGN.md §12). Null = obs::Clock::Real(). Not owned.
  obs::Clock* clock = nullptr;
};

/// A sync host: the canonical set, its replicated write path and the
/// host's instruments. Subclasses add the I/O driver that carries
/// connections to Connection.
class SyncHost {
 public:
  virtual ~SyncHost() = default;

  SyncHost(const SyncHost&) = delete;
  SyncHost& operator=(const SyncHost&) = delete;

  /// Starts serving on `listener`. Returns false if already started or
  /// `listener` is null. A stopped host may be started again.
  virtual bool Start(std::unique_ptr<net::TcpListener> listener) = 0;

  /// Closes the listener and every open connection, then joins the
  /// host's threads. Idempotent; also called by the destructor.
  virtual void Stop() = 0;

  /// Bound TCP port (0 unless Start()ed).
  virtual uint16_t port() const = 0;

  /// Legacy flat counters snapshot, rebuilt from the metrics registry.
  SyncServerMetrics metrics() const { return obs_.LegacyMetrics(); }

  /// Plain-text counters dump (server/server_stats.h): one totals line
  /// (generation + replication position included) plus one line per
  /// negotiated protocol.
  std::string DumpStats() const;

  /// The host's metrics registry — the "@stats" admin verb and the syncd
  /// `--metrics-port` HTTP responder serve its Prometheus rendering, and
  /// subsystems riding on this host (replica/replica_node.h) register
  /// their instruments here. See DESIGN.md §12.
  obs::MetricsRegistry& metrics_registry() { return obs_.registry(); }
  const obs::MetricsRegistry& metrics_registry() const {
    return obs_.registry();
  }

  /// The registry in Prometheus text exposition format (what "@stats"
  /// answers with).
  std::string RenderMetrics() const {
    return obs_.registry().RenderPrometheus();
  }

  /// Mutates the canonical set (erases first, then inserts; see
  /// SketchStore::ApplyUpdate) and returns the new generation's snapshot.
  /// Safe to call while connections are being served: in-flight sessions
  /// finish against the snapshot they were pinned to. On a replicating
  /// host the batch is also journaled at replica_seq() + 1, atomically
  /// with the store mutation.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(const PointSet& inserts,
                                                    const PointSet& erases);

  /// ApplyUpdate variant stamping the journaled entry with the trace
  /// that caused the mutation, so downstream replication rounds can link
  /// their spans to it (the append-time clock stamp is taken either
  /// way). An invalid `trace` journals an untraced entry.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(
      const PointSet& inserts, const PointSet& erases,
      const obs::TraceContext& trace);

  /// Applies one journaled entry fetched from a peer (the log catch-up
  /// path): exactly ApplyUpdate, except the position comes from the entry
  /// and the entry is mirrored into this host's own changelog verbatim, so
  /// the replayed history stays bit-identical to the writer's. Entries at
  /// or below replica_seq() are skipped (idempotent); an entry above
  /// replica_seq() + 1 is a replication bug and checks fatally.
  std::shared_ptr<const SketchSnapshot> ApplyReplicated(
      const replica::ChangeEntry& entry);

  /// Installs the outcome of a protocol repair against a peer at position
  /// `seq`: applies the delta, then — when the repair was `exact` (an
  /// exact-key protocol against a clean peer) — adopts `seq` as this
  /// host's position and re-bases the changelog there
  /// (Changelog::MarkSnapshot). An approximate repair leaves the position
  /// and log alone and marks the host dirty: its set now corresponds to no
  /// journal position, so it must repair (never tail-replay) until an
  /// exact repair lands. See replica/replica_node.h.
  std::shared_ptr<const SketchSnapshot> InstallRepair(const PointSet& inserts,
                                                      const PointSet& erases,
                                                      uint64_t seq,
                                                      bool exact);

  /// Replication position: seq of the last journaled mutation folded into
  /// the canonical set (0 on a non-replicating host).
  uint64_t replica_seq() const;

  /// True after an approximate repair, until an exact one supersedes it.
  bool repair_dirty() const;

  /// The current canonical snapshot (points + generation + sketches).
  std::shared_ptr<const SketchSnapshot> snapshot() const {
    return store_.Snapshot();
  }

  /// The current canonical point set (by value: the set mutates under
  /// ApplyUpdate while the snapshot it came from stays frozen).
  PointSet canonical() const { return store_.Snapshot()->points(); }

 protected:
  SyncHost(PointSet canonical, const SyncHostOptions& options);

  const SyncHostOptions options_;
  /// Declared before store_: the store's instruments live in obs_'s
  /// registry.
  ServerObs obs_;

 private:
  friend class Connection;

  obs::Clock* const clock_;
  /// Mints trace ids for sessions arriving without inbound context.
  obs::TraceIdGenerator trace_gen_;
  SketchStore store_;
  const recon::ProtocolRegistry* const registry_;
  /// Replication-position instruments, set on the write path under
  /// replica_mu_ so a scrape never takes that lock.
  obs::Gauge* const replica_seq_gauge_;
  obs::Gauge* const repair_dirty_gauge_;

  /// Guards the (store mutation, changelog append, replica_seq_,
  /// repair_dirty_) compound so a served snapshot + position pair is
  /// always consistent. LOCK ORDER: this is the OUTERMOST lock of the
  /// write path — the store's and changelog's internal mutexes nest
  /// inside it (replica_mu_ → store mu_ / changelog mu_; DESIGN.md §13).
  /// Never call back into SyncHost's locking methods while holding it.
  mutable Mutex replica_mu_;
  uint64_t replica_seq_ RSR_GUARDED_BY(replica_mu_) = 0;
  bool repair_dirty_ RSR_GUARDED_BY(replica_mu_) = false;
};

/// One served connection, from its opening frame to its settlement.
/// Single-threaded: the host drives it from one thread at a time.
///
/// Opening verbs and what follows them:
///   "@hello"     "@accept", then Bob's frames until Bob finishes (a
///                control label mid-session fails it kUnexpectedMessage,
///                more than max_deliveries frames kStalled), "@result",
///                then draining.
///   "@pull"      "@pull-accept", then Alice's frames until the puller
///                closes — Alice has no terminal frame, so a clean close
///                is the pull's success.
///   "@log-fetch" one "@log-batch", then draining.
///   "@stats"     one "@stats" reply, then draining.
/// A malformed opening or an unknown protocol is answered with "@reject"
/// carrying the registry's ListProtocols(). Draining discards what the
/// peer still sends until it closes (closing with unread bytes queued
/// would reset the connection and could discard the reply in flight).
class Connection {
 public:
  /// Delivers one frame to the peer; false once the write side failed.
  using FrameSink = std::function<bool(const transport::Message&)>;

  /// Counts the connection as accepted on `host` and opens its span.
  Connection(SyncHost* host, FrameSink sink);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One decoded frame from the peer.
  void OnFrame(transport::Message message);

  /// The read side ended: `clean` for a close between frames, otherwise
  /// `error` names the failure (a corrupt or truncated frame, a transport
  /// error). A live Bob session still ships its failure "@result" — the
  /// peer may only have half-closed.
  void OnStreamEnd(recon::SessionError error, bool clean);

  /// The peer was silent for the host's idle deadline; a live Bob session
  /// ships a best-effort kTransportClosed "@result".
  void OnIdleExpiry();

  /// True once nothing more is read: the host flushes what was emitted,
  /// closes the stream and calls Close().
  bool done() const { return phase_ == Phase::kDone; }

  /// Settles the host's metrics and the span, exactly once; a session
  /// still live (the transport died under it) counts as failed.
  /// `bytes_in`/`bytes_out` are the transport's framed byte counts.
  void Close(size_t bytes_in, size_t bytes_out);

 private:
  enum class Phase { kOpening, kBob, kAlice, kDraining, kDone };

  void Open(const transport::Message& message);
  /// Creates the named protocol, or rejects the connection and returns
  /// null when the registry does not offer it.
  std::unique_ptr<recon::Reconciler> Negotiate(const std::string& name);
  void Reject(std::string reason);
  /// Marks a counted session as begun under `name`; a non-null `inbound`
  /// trace context is adopted (span id derived with `salt`), else a root
  /// trace is minted when tracing is on.
  void Begin(std::string name, const obs::TraceContext* inbound,
             uint64_t salt);
  /// Ships the one reply of "@stats"/"@log-fetch" and starts draining.
  void Answer(const transport::Message& reply);
  /// Sends `frames` in order; on a write failure the session fails.
  bool SendAll(const std::vector<transport::Message>& frames);
  bool Send(const transport::Message& message);
  /// Ends Bob's session: applies `pump_error`, ships "@result", drains.
  void FinishBob(recon::SessionError pump_error);
  void EndSession(bool success);

  SyncHost* const host_;
  const FrameSink sink_;
  Phase phase_ = Phase::kOpening;
  obs::SessionSpan span_;

  std::string protocol_;  ///< Settled label ("quadtree", "@pull:...").
  bool want_result_set_ = true;
  /// The canonical generation the session is pinned to, kept alive for
  /// the session so Bob's sketch provider stays valid under ApplyUpdate.
  std::shared_ptr<const SketchSnapshot> snapshot_;
  std::unique_ptr<recon::PartySession> party_;  ///< Bob or Alice.
  size_t deliveries_ = 0;  ///< Protocol frames; drained frames after.
  std::chrono::steady_clock::time_point session_start_;

  // Outcome, settled once by Close().
  bool session_started_ = false;
  bool session_finished_ = false;
  bool success_ = false;
  bool rejected_ = false;
  bool timed_out_ = false;
  bool closed_ = false;
  double wall_seconds_ = 0.0;
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_CONNECTION_H_
