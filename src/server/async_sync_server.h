// Event-driven many-client sync server: N epoll shards, zero blocked
// threads per connection.
//
// AsyncSyncServer serves exactly what SyncServer serves — every verb of
// the shared connection core (server/connection.h): "@hello" syncs with
// results bit-identical to recon::DrivePair, "@pull" repairs, "@log-fetch"
// tails and "@stats" — but drives it from a reactor instead of a worker
// pool. Start() spawns `shards` threads, each running one net::EventLoop;
// the listener is accepted on shard 0 and every new connection is pinned
// to a shard round-robin at accept time. A pinned connection's whole life
// happens on that one shard thread, so sessions stay single-threaded with
// no locks on the hot path; only the metrics registry is shared
// (lock-free record path; server/server_obs.h).
//
// Because no thread ever blocks on a socket, concurrency is bounded by fd
// limits rather than thread count: two shards sustain hundreds of
// mostly-idle replicas where a two-worker SyncServer serializes them
// (bench/bench_e17_async_load.cc measures exactly this).
//
// Idle connections are bounded: a connection with no traffic for
// `idle_timeout` is failed with SessionError::kTransportClosed (a
// best-effort failure "@result" is flushed first if a session was live).
// Stop() drains deterministically — it closes the listener, then posts one
// shutdown task per shard that fails all of the shard's open connections
// and stops its loop, then joins the shard threads in index order.
// See DESIGN.md §8.

#ifndef RSR_SERVER_ASYNC_SYNC_SERVER_H_
#define RSR_SERVER_ASYNC_SYNC_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/event_loop.h"
#include "net/tcp.h"
#include "server/connection.h"

namespace rsr {
namespace server {

/// The shared host options plus the reactor's knobs.
struct AsyncSyncServerOptions : SyncHostOptions {
  /// Event-loop shards (threads). Each connection is pinned to one.
  size_t shards = 2;
  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default.
  /// Small values bound per-connection kernel memory under huge fan-out —
  /// and force the partial-write flush paths the tests pin down.
  int so_sndbuf = 0;
};

class AsyncSyncServer : public SyncHost {
 public:
  AsyncSyncServer(PointSet canonical, AsyncSyncServerOptions options);
  ~AsyncSyncServer() override;

  /// Spawns the shard threads and starts accepting on `listener` (flipped
  /// to non-blocking).
  bool Start(std::unique_ptr<net::TcpListener> listener) override;

  /// Closes the listener, fails every open connection, stops each shard
  /// loop and joins its thread, in shard order.
  void Stop() override;

  uint16_t port() const override;

 private:
  struct Shard;
  struct Conn;

  void AcceptReady();
  /// Registers `stream` with `shard` (runs on the shard's loop thread).
  void AdoptConn(Shard* shard, std::unique_ptr<net::TcpStream> stream);
  void OnConnEvent(Conn* conn, uint32_t ready);
  /// Feeds every decoded frame to the connection core.
  void ProcessInbox(Conn* conn);
  /// After the core has taken its input: closes a finished connection
  /// once its last frames are flushed, else refreshes fd interest.
  void Advance(Conn* conn);
  void OnIdleTimeout(Conn* conn);
  void UpdateInterest(Conn* conn);
  void TouchIdleTimer(Conn* conn);
  /// Deregisters, settles the core, and schedules destruction.
  void CloseConn(Conn* conn);

  const size_t shard_count_;
  const int so_sndbuf_;
  /// Shared per-shard loop instruments, installed on every shard's loop
  /// before its thread starts. All-null when latency_probes is off.
  net::EventLoop::Metrics loop_metrics_;
  // Everything below is touched by Start/Stop and the accept path only;
  // connection state is shard-thread confined (one connection lives on
  // exactly one EventLoop thread) and deliberately unannotated.
  std::unique_ptr<net::TcpListener> listener_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t next_shard_ = 0;  ///< Round-robin cursor (accept path only).
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_ASYNC_SYNC_SERVER_H_
