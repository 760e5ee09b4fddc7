#include "server/connection.h"

#include <utility>

#include "server/handshake.h"
#include "server/replica_serving.h"
#include "util/check.h"

namespace rsr {
namespace server {

namespace {

using recon::SessionError;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Role salts separating the server-side span ids derived from one
// inbound context (a "@hello" session and the "@pull" it may trigger on
// another host must not collide).
constexpr uint64_t kHelloSpanSalt = 0x73657276'68656c6fULL;    // "servhelo"
constexpr uint64_t kLogFetchSpanSalt = 0x73657276'6c6f6766ULL;  // "servlogf"
constexpr uint64_t kPullSpanSalt = 0x73657276'70756c6cULL;      // "servpull"

}  // namespace

// ------------------------------------------------------------- SyncHost

SyncHost::SyncHost(PointSet canonical, const SyncHostOptions& options)
    : options_(options),
      obs_(ServerObsOptions{options_.latency_probes, options_.trace_sink}),
      clock_(options_.clock != nullptr ? options_.clock : obs::Clock::Real()),
      trace_gen_(options_.trace_seed, kHelloSpanSalt),
      store_(std::move(canonical),
             SketchStoreOptions{
                 options_.context, options_.params, options_.serve_from_cache,
                 MakeStoreMetrics(&obs_.registry(), options_.latency_probes)}),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &recon::ProtocolRegistry::Global()),
      replica_seq_gauge_(obs_.registry().GetGauge(
          "rsr_replica_seq",
          "Replication position (last journaled seq folded into the set)")),
      repair_dirty_gauge_(obs_.registry().GetGauge(
          "rsr_replica_repair_dirty",
          "1 after an approximate repair, until an exact one supersedes")) {}

std::shared_ptr<const SketchSnapshot> SyncHost::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  return ApplyUpdate(inserts, erases, obs::TraceContext());
}

std::shared_ptr<const SketchSnapshot> SyncHost::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases,
    const obs::TraceContext& trace) {
  MutexLock lock(replica_mu_);
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(inserts, erases);
  if (options_.changelog != nullptr) {
    replica::ChangeEntry entry;
    entry.seq = ++replica_seq_;
    entry.inserts = inserts;
    entry.erases = erases;
    entry.append_micros = clock_->NowMicros();
    entry.trace_hi = trace.trace_hi;
    entry.trace_lo = trace.trace_lo;
    options_.changelog->Append(std::move(entry));
    replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  }
  return snap;
}

std::shared_ptr<const SketchSnapshot> SyncHost::ApplyReplicated(
    const replica::ChangeEntry& entry) {
  MutexLock lock(replica_mu_);
  if (entry.seq <= replica_seq_) return store_.Snapshot();
  RSR_CHECK_MSG(entry.seq == replica_seq_ + 1,
                "replicated entry would leave a seq gap");
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(entry.inserts, entry.erases);
  replica_seq_ = entry.seq;
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  if (options_.changelog != nullptr) options_.changelog->Append(entry);
  return snap;
}

std::shared_ptr<const SketchSnapshot> SyncHost::InstallRepair(
    const PointSet& inserts, const PointSet& erases, uint64_t seq,
    bool exact) {
  MutexLock lock(replica_mu_);
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(inserts, erases);
  if (exact) {
    replica_seq_ = seq;
    repair_dirty_ = false;
    if (options_.changelog != nullptr) options_.changelog->MarkSnapshot(seq);
  } else {
    // The set now corresponds to no journal position: stay at the old seq
    // (so a later exact repair re-bases correctly) and flag the state.
    repair_dirty_ = true;
  }
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  repair_dirty_gauge_->Set(repair_dirty_ ? 1 : 0);
  return snap;
}

uint64_t SyncHost::replica_seq() const {
  MutexLock lock(replica_mu_);
  return replica_seq_;
}

bool SyncHost::repair_dirty() const {
  MutexLock lock(replica_mu_);
  return repair_dirty_;
}

std::string SyncHost::DumpStats() const {
  uint64_t generation = 0;
  uint64_t seq = 0;
  {
    MutexLock lock(replica_mu_);
    generation = store_.Snapshot()->generation();
    seq = replica_seq_;
  }
  return rsr::server::DumpStats(metrics(), generation, seq);
}

// ----------------------------------------------------------- Connection

Connection::Connection(SyncHost* host, FrameSink sink)
    : host_(host),
      sink_(std::move(sink)),
      span_(host->obs_.trace_sink(), "sync-session") {
  host_->obs_.OnAccepted();
  span_.SetSampling(&host_->options_.trace_sampling,
                    host_->obs_.span_emitted(), host_->obs_.span_dropped());
  span_.BeginPhase("handshake");
}

void Connection::OnFrame(transport::Message message) {
  span_.AddFrameIn(net::EncodedFrameBytes(message));
  switch (phase_) {
    case Phase::kOpening:
      Open(message);
      return;
    case Phase::kBob:
      if (IsControlLabel(message.label)) {
        // The control plane is quiet during the protocol phase.
        FinishBob(SessionError::kUnexpectedMessage);
      } else if (++deliveries_ > host_->options_.max_deliveries) {
        FinishBob(SessionError::kStalled);
      } else if (SendAll(party_->OnMessage(std::move(message))) &&
                 party_->IsDone()) {
        FinishBob(SessionError::kNone);
      }
      return;
    case Phase::kAlice:
      if (IsControlLabel(message.label) ||
          ++deliveries_ > host_->options_.max_deliveries) {
        EndSession(false);
      } else {
        SendAll(party_->OnMessage(std::move(message)));
      }
      return;
    case Phase::kDraining:
      if (++deliveries_ > host_->options_.max_deliveries) {
        phase_ = Phase::kDone;
      }
      return;
    case Phase::kDone:
      return;
  }
}

void Connection::OnStreamEnd(SessionError error, bool clean) {
  if (phase_ == Phase::kBob) {
    FinishBob(error != SessionError::kNone ? error
                                           : SessionError::kTransportClosed);
  } else if (phase_ == Phase::kAlice) {
    // Pulls end when the puller closes: Alice's side of a session has no
    // terminal frame of its own (one-shot protocols end with Alice silent
    // and Bob done), so a clean close IS the end-of-pull signal.
    EndSession(clean);
  }
  phase_ = Phase::kDone;
}

void Connection::OnIdleExpiry() {
  timed_out_ = true;
  // Best effort: the peer is idle, not necessarily gone — ship the
  // failure result before hanging up on it.
  OnStreamEnd(SessionError::kTransportClosed, /*clean=*/false);
}

void Connection::Open(const transport::Message& message) {
  const recon::ProtocolContext& context = host_->options_.context;
  // Admin and replication verbs claim the whole connection before any
  // "@hello".
  if (message.label == kStatsLabel) {
    Begin(kStatsLabel, nullptr, 0);
    span_.BeginPhase("result");
    Answer(EncodeStatsReply(host_->RenderMetrics()));
    return;
  }
  if (message.label == kLogFetchLabel) {
    LogFetchFrame fetch;
    if (!DecodeLogFetch(message, &fetch)) {
      Reject("malformed " + std::string(kLogFetchLabel) + " frame");
      return;
    }
    Begin(kLogFetchLabel, &fetch.trace, kLogFetchSpanSalt);
    span_.BeginPhase("result");
    LogBatchFrame batch;
    {
      // One consistent (entries, last_seq, dirty, strata) view.
      MutexLock lock(host_->replica_mu_);
      batch = BuildLogBatch(fetch, host_->options_.changelog,
                            *host_->store_.Snapshot(), host_->replica_seq_,
                            host_->repair_dirty_, context,
                            host_->options_.log_fetch_max_entries);
    }
    Answer(EncodeLogBatch(batch, context.universe));
    return;
  }

  const bool pull = message.label == kPullLabel;
  HelloFrame hello;
  PullFrame pull_frame;
  if (pull ? !DecodePull(message, &pull_frame)
           : !DecodeHello(message, &hello)) {
    Reject(pull ? "malformed " + std::string(kPullLabel) + " frame"
                : "expected a well-formed " + std::string(kHelloLabel) +
                      " frame, got \"" + message.label + "\"");
    return;
  }
  const std::string& name = pull ? pull_frame.protocol : hello.protocol;
  const std::unique_ptr<recon::Reconciler> protocol = Negotiate(name);
  if (protocol == nullptr) return;
  if (pull) {
    Begin(std::string(kPullLabel) + ":" + name, &pull_frame.trace,
          kPullSpanSalt);
  } else {
    Begin(name, &hello.trace, kHelloSpanSalt);
    want_result_set_ = hello.want_result_set;
  }

  // Pin the session to one immutable canonical generation: the snapshot
  // supplies the point set and, when caching is on, Bob's precomputed
  // sketches. The replication position and dirty flag are read under the
  // write path's lock, so (snapshot, seq, dirty) is one consistent view.
  uint64_t served_seq = 0;
  bool dirty = false;
  {
    MutexLock lock(host_->replica_mu_);
    snapshot_ = host_->store_.Snapshot();
    served_seq = host_->replica_seq_;
    dirty = host_->repair_dirty_;
  }
  transport::Message ack;
  if (pull) {
    // The puller runs Bob; this host is Alice — the direction that moves
    // the PULLER's set toward this host's (see server/handshake.h).
    party_ = protocol->MakeAliceSession(snapshot_->points());
    PullAcceptFrame accept;
    accept.protocol = name;
    accept.server_set_size = snapshot_->size();
    accept.seq = served_seq;
    accept.generation = snapshot_->generation();
    accept.dirty = dirty;
    ack = EncodePullAccept(accept);
  } else {
    party_ = protocol->MakeBobSession(snapshot_->points(), snapshot_.get());
    AcceptFrame accept;
    accept.protocol = name;
    accept.server_set_size = snapshot_->size();
    accept.will_send_result_set = hello.want_result_set;
    accept.generation = snapshot_->generation();
    accept.replica_seq = served_seq;
    ack = EncodeAccept(accept);
  }
  phase_ = pull ? Phase::kAlice : Phase::kBob;
  if (!Send(ack)) return;
  span_.BeginPhase("rounds");
  if (SendAll(party_->Start()) && !pull && party_->IsDone()) {
    FinishBob(SessionError::kNone);
  }
}

std::unique_ptr<recon::Reconciler> Connection::Negotiate(
    const std::string& name) {
  std::unique_ptr<recon::Reconciler> protocol;
  if (host_->registry_->Contains(name)) {
    protocol = host_->registry_->Create(name, host_->options_.context,
                                        host_->options_.params);
  }
  if (protocol == nullptr) Reject("unknown protocol \"" + name + "\"");
  return protocol;
}

void Connection::Reject(std::string reason) {
  RejectFrame reject;
  reject.reason = std::move(reason);
  reject.protocols = host_->registry_->ListProtocols();
  rejected_ = true;
  Send(EncodeReject(reject));
  phase_ = Phase::kDone;
}

void Connection::Begin(std::string name, const obs::TraceContext* inbound,
                       uint64_t salt) {
  protocol_ = std::move(name);
  session_started_ = true;
  session_start_ = std::chrono::steady_clock::now();
  span_.set_protocol(protocol_);
  if (inbound == nullptr || !span_.active()) return;
  obs::TraceContext ctx = *inbound;
  uint64_t parent = 0;
  if (ctx.valid()) {
    parent = ctx.span_id;
    ctx.span_id = obs::DeriveSpanId(ctx, salt);
  } else {
    // No inbound context (an old peer, or tracing off at the caller): the
    // span still gets identity, as the root of its own trace, so every
    // emitted span is joinable and the sampling hash never keys on zero.
    ctx = host_->trace_gen_.NewTrace();
  }
  span_.SetTrace(ctx, parent);
}

void Connection::Answer(const transport::Message& reply) {
  const bool ok = Send(reply);
  EndSession(ok);
  if (ok) phase_ = Phase::kDraining;
}

bool Connection::SendAll(const std::vector<transport::Message>& frames) {
  for (const transport::Message& frame : frames) {
    if (!Send(frame)) return false;
  }
  return true;
}

bool Connection::Send(const transport::Message& message) {
  if (!sink_(message)) {
    // Nobody left to ship a result to: a live session just fails.
    if (session_started_ && !session_finished_) EndSession(false);
    phase_ = Phase::kDone;
    return false;
  }
  span_.AddFrameOut(net::EncodedFrameBytes(message));
  return true;
}

void Connection::FinishBob(SessionError pump_error) {
  recon::ReconResult result = party_->TakeResult();
  if (pump_error != SessionError::kNone) {
    result.success = false;
    if (result.error == SessionError::kNone) result.error = pump_error;
  }
  EndSession(result.success);
  span_.BeginPhase("result");
  ResultFrame frame;
  frame.has_set = want_result_set_ && result.success;
  frame.result = std::move(result);
  if (!frame.has_set) frame.result.bob_final.clear();
  phase_ = Phase::kDraining;
  deliveries_ = 0;  // the drain gets its own max_deliveries budget
  Send(EncodeResult(frame, host_->options_.context.universe));
}

void Connection::EndSession(bool success) {
  session_finished_ = true;
  success_ = success;
  wall_seconds_ = SecondsSince(session_start_);
  phase_ = Phase::kDone;
}

void Connection::Close(size_t bytes_in, size_t bytes_out) {
  if (closed_) return;
  closed_ = true;
  if (session_started_ && !session_finished_) EndSession(false);
  ServerObs::Settle settle;
  settle.session_counted = session_started_;
  settle.protocol = protocol_;
  settle.success = success_;
  settle.wall_seconds = wall_seconds_;
  settle.rejected = rejected_;
  settle.timed_out = timed_out_;
  settle.bytes_in = bytes_in;
  settle.bytes_out = bytes_out;
  host_->obs_.OnClosed(settle);
  const char* outcome = "never-started";
  if (rejected_) {
    outcome = "rejected";
  } else if (session_started_ && success_) {
    outcome = "ok";
  } else if (timed_out_) {
    outcome = "idle-timeout";
  } else if (session_started_) {
    outcome = "fail";
  }
  span_.set_outcome(outcome);
  span_.Finish();
  phase_ = Phase::kDone;
}

}  // namespace server
}  // namespace rsr
