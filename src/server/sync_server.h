// Many-client sync server over the protocol registry: the threaded host.
//
// One SyncServer owns a canonical point set and reconciles it concurrently
// against any number of connecting replicas. Everything a connection does
// — the "@hello"/"@accept" handshake (server/handshake.h), the negotiated
// protocol's Bob-side PartySession against the canonical set, the
// "@result", and the "@pull"/"@log-fetch"/"@stats" verbs — is the shared
// connection core (server/connection.h); this host is only its I/O
// driver. A served sync is bit-identical to recon::DrivePair on the same
// inputs.
//
// The canonical set lives in a SketchStore (server/sketch_store.h): each
// session is pinned to one immutable generation-stamped snapshot, and by
// default serves from the snapshot's cached sketches instead of rebuilding
// them from the set. ApplyUpdate mutates the canonical set between (or
// during) syncs; in-flight sessions keep their pinned snapshot. See
// DESIGN.md §9.
//
// Threading model: Start() spawns one accept thread plus a fixed pool of
// worker threads; accepted connections go through a queue and each worker
// serves one connection at a time, blocking on its socket. Sessions are
// single-threaded end to end — only the queue (behind a mutex) and the
// metrics registry (lock-free record path; server/server_obs.h) are
// shared — which is what keeps the protocol code
// (written for the in-process driver) safe to host unchanged. See
// DESIGN.md §6.

#ifndef RSR_SERVER_SYNC_SERVER_H_
#define RSR_SERVER_SYNC_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/byte_stream.h"
#include "net/tcp.h"
#include "server/connection.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

/// The shared host options plus the worker pool size.
struct SyncServerOptions : SyncHostOptions {
  size_t worker_threads = 4;
};

class SyncServer : public SyncHost {
 public:
  SyncServer(PointSet canonical, SyncServerOptions options);
  ~SyncServer() override;

  /// Serves exactly one connection to completion on the calling thread:
  /// a blocking pump feeding the connection core. Start()'s workers call
  /// it, and tests drive it directly over a PipeStream.
  void ServeConnection(net::ByteStream* stream);

  /// Spawns the accept thread and worker pool over `listener`.
  bool Start(std::unique_ptr<net::TcpListener> listener) override;

  /// Closes the listener plus every queued and in-flight connection
  /// stream (so shutdown never waits on a silent client), then joins all
  /// threads.
  void Stop() override;

  uint16_t port() const override;

 private:
  void AcceptLoop();
  void WorkerLoop();

  const size_t worker_threads_;
  std::unique_ptr<net::TcpListener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// A queued connection remembers when it was accepted so the dequeuing
  /// worker can observe the queue-delay histogram.
  struct PendingConn {
    std::unique_ptr<net::ByteStream> stream;
    std::chrono::steady_clock::time_point enqueued;
  };

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<PendingConn> pending_ RSR_GUARDED_BY(queue_mu_);
  bool stopping_ RSR_GUARDED_BY(queue_mu_) = false;

  /// Streams currently inside a worker's ServeConnection; Stop() closes
  /// them to unblock sessions stuck on a silent or slow client.
  /// LOCK ORDER: acquired with queue_mu_ already held in the dequeue
  /// path, so active_mu_ nests inside queue_mu_ — never the reverse.
  Mutex active_mu_ RSR_ACQUIRED_AFTER(queue_mu_);
  std::set<net::ByteStream*> active_ RSR_GUARDED_BY(active_mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SYNC_SERVER_H_
