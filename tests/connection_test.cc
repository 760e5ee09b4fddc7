// The connection core (server/connection.h) driven without sockets: each
// case feeds a Connection frame sequences and stream events directly and
// checks the frames it emits and the counters Close() settles — the
// dispatch, reject, stall and mid-session control-frame paths both hosts
// share, pinned below the I/O drivers.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "recon/driver.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/changelog.h"
#include "server/connection.h"
#include "server/handshake.h"
#include "server/sync_server.h"
#include "transport/channel.h"
#include "workload/generator.h"

namespace rsr {
namespace server {
namespace {

using recon::SessionError;

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 4242;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.k = 8;
  return params;
}

PointSet Cloud(size_t n, uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(seed);
  return workload::GenerateCloud(spec, &rng);
}

SyncServerOptions HostOptions() {
  SyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  return options;
}

/// A Connection over a never-started host whose output frames land in
/// `sent`.
struct Harness {
  explicit Harness(SyncServerOptions options = HostOptions())
      : host(Cloud(48, 7), std::move(options)),
        conn(&host, [this](const transport::Message& message) {
          sent.push_back(message);
          return true;
        }) {}

  uint64_t Sessions(const std::string& protocol, const char* outcome) const {
    return host.metrics_registry().CounterValue(
        "rsr_sync_sessions_total",
        {{"protocol", protocol}, {"outcome", outcome}});
  }
  uint64_t Rejected() const {
    return host.metrics_registry().CounterValue(
        "rsr_sync_handshakes_rejected_total");
  }

  SyncServer host;
  std::vector<transport::Message> sent;
  Connection conn;
};

transport::Message Hello(const std::string& protocol) {
  HelloFrame hello;
  hello.protocol = protocol;
  return EncodeHello(hello);
}

/// An opening frame carrying `label` and no payload — too short for any
/// verb's decoder.
transport::Message Empty(const char* label) {
  transport::Message message;
  message.label = label;
  return message;
}

void ExpectRejectWithProtocols(const Harness& h, const std::string& why) {
  ASSERT_EQ(h.sent.size(), 1u);
  RejectFrame reject;
  ASSERT_TRUE(DecodeReject(h.sent[0], &reject));
  EXPECT_NE(reject.reason.find(why), std::string::npos) << reject.reason;
  EXPECT_EQ(reject.protocols,
            recon::ProtocolRegistry::Global().ListProtocols());
  EXPECT_TRUE(h.conn.done());
}

ResultFrame DecodeLastResult(const Harness& h) {
  ResultFrame frame;
  EXPECT_FALSE(h.sent.empty());
  if (h.sent.empty()) return frame;
  EXPECT_EQ(h.sent.back().label, kResultLabel);
  EXPECT_TRUE(DecodeResult(h.sent.back(), Ctx().universe, &frame));
  return frame;
}

/// Pumps a client-side Alice for `protocol` against the connection until
/// it ships "@result" or goes quiet; returns how many frames Alice sent.
size_t PumpAlice(Harness* h, const std::string& protocol,
                 const PointSet& alice_points) {
  const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
  const std::unique_ptr<recon::PartySession> alice =
      reconciler->MakeAliceSession(alice_points);
  h->conn.OnFrame(Hello(protocol));
  std::vector<transport::Message> to_bob = alice->Start();
  size_t delivered = 0;
  size_t consumed = 1;  // the "@accept"
  while (!h->conn.done()) {
    for (transport::Message& frame : to_bob) {
      h->conn.OnFrame(std::move(frame));
      ++delivered;
    }
    to_bob.clear();
    if (!h->sent.empty() && h->sent.back().label == kResultLabel) break;
    if (consumed == h->sent.size()) break;  // nothing new for Alice
    for (; consumed < h->sent.size(); ++consumed) {
      for (transport::Message& reply :
           alice->OnMessage(h->sent[consumed])) {
        to_bob.push_back(std::move(reply));
      }
    }
  }
  return delivered;
}

TEST(ConnectionTest, UnknownProtocolIsRejectedWithProtocolList) {
  Harness h;
  h.conn.OnFrame(Hello("no-such-protocol"));
  ExpectRejectWithProtocols(h, "unknown protocol");
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Rejected(), 1u);
  EXPECT_EQ(h.host.metrics().syncs_completed + h.host.metrics().syncs_failed,
            0u);
}

TEST(ConnectionTest, MalformedLogFetchIsRejected) {
  Harness h;
  h.conn.OnFrame(Empty(kLogFetchLabel));
  ExpectRejectWithProtocols(h, "malformed @log-fetch");
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Rejected(), 1u);
}

TEST(ConnectionTest, MalformedPullIsRejected) {
  Harness h;
  h.conn.OnFrame(Empty(kPullLabel));
  ExpectRejectWithProtocols(h, "malformed @pull");
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Rejected(), 1u);
}

TEST(ConnectionTest, ServedSyncMatchesTheDriver) {
  Harness h;
  const PointSet alice_points = Cloud(48, 8);
  PumpAlice(&h, "quadtree", alice_points);
  ASSERT_FALSE(h.conn.done());  // draining until the client closes
  const ResultFrame served = DecodeLastResult(h);

  const auto reconciler = recon::MakeReconciler("quadtree", Ctx(), Params());
  transport::Channel channel;
  const recon::ReconResult expected =
      reconciler->Run(alice_points, h.host.canonical(), &channel);
  EXPECT_EQ(served.result.success, expected.success);
  EXPECT_EQ(served.result.bob_final, expected.bob_final);

  h.conn.OnStreamEnd(SessionError::kTransportClosed, /*clean=*/true);
  EXPECT_TRUE(h.conn.done());
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Sessions("quadtree", expected.success ? "ok" : "fail"), 1u);
}

TEST(ConnectionTest, ControlFrameMidSessionIsUnexpectedMessage) {
  Harness h;
  h.conn.OnFrame(Hello("quadtree"));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].label, kAcceptLabel);
  h.conn.OnFrame(Hello("quadtree"));  // control plane, mid-protocol
  const ResultFrame result = DecodeLastResult(h);
  EXPECT_FALSE(result.result.success);
  EXPECT_EQ(result.result.error, SessionError::kUnexpectedMessage);
  EXPECT_FALSE(result.has_set);
  h.conn.OnStreamEnd(SessionError::kTransportClosed, /*clean=*/true);
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Sessions("quadtree", "fail"), 1u);
  EXPECT_EQ(h.Sessions("quadtree", "ok"), 0u);
}

TEST(ConnectionTest, DeliveriesBeyondTheCapStall) {
  // gap-lattice runs three Alice rounds, so a cap of one delivery trips
  // on the second.
  Harness unbounded;
  ASSERT_GE(PumpAlice(&unbounded, "gap-lattice", Cloud(48, 9)), 2u);

  SyncServerOptions options = HostOptions();
  options.max_deliveries = 1;
  Harness h(options);
  PumpAlice(&h, "gap-lattice", Cloud(48, 9));
  const ResultFrame result = DecodeLastResult(h);
  EXPECT_FALSE(result.result.success);
  EXPECT_EQ(result.result.error, SessionError::kStalled);
  // The drain after the stall waits for the client's close rather than
  // hanging up on the "@result" in flight.
  h.conn.OnFrame(Hello("gap-lattice"));
  EXPECT_FALSE(h.conn.done());
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Sessions("gap-lattice", "fail"), 1u);
}

TEST(ConnectionTest, IdleExpiryMidSessionShipsTransportClosed) {
  Harness h;
  h.conn.OnFrame(Hello("quadtree"));
  h.conn.OnIdleExpiry();
  EXPECT_TRUE(h.conn.done());
  const ResultFrame result = DecodeLastResult(h);
  EXPECT_EQ(result.result.error, SessionError::kTransportClosed);
  h.conn.Close(0, 0);
  EXPECT_EQ(h.host.metrics().idle_timeouts, 1u);
  EXPECT_EQ(h.Sessions("quadtree", "fail"), 1u);
}

TEST(ConnectionTest, StatsIsAnsweredWithOneReply) {
  Harness h;
  h.conn.OnFrame(EncodeStatsRequest());
  ASSERT_EQ(h.sent.size(), 1u);
  std::string text;
  ASSERT_TRUE(DecodeStatsReply(h.sent[0], &text));
  EXPECT_NE(text.find("rsr_sync_connections_accepted_total 1"),
            std::string::npos);
  // Anything the client sends after the reply is drained, not answered.
  h.conn.OnFrame(EncodeStatsRequest());
  EXPECT_EQ(h.sent.size(), 1u);
  h.conn.OnStreamEnd(SessionError::kTransportClosed, /*clean=*/true);
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Sessions(kStatsLabel, "ok"), 1u);
}

TEST(ConnectionTest, PullHostsAliceUntilTheCleanClose) {
  Harness h;
  PullFrame pull;
  pull.protocol = "full-transfer";
  h.conn.OnFrame(EncodePull(pull));
  ASSERT_GE(h.sent.size(), 1u);
  PullAcceptFrame accept;
  ASSERT_TRUE(DecodePullAccept(h.sent[0], &accept));
  EXPECT_EQ(accept.server_set_size, h.host.canonical().size());

  // The puller runs Bob on Alice's frames and adopts the host's set.
  const auto reconciler =
      recon::MakeReconciler("full-transfer", Ctx(), Params());
  const std::unique_ptr<recon::PartySession> bob =
      reconciler->MakeBobSession(Cloud(40, 10));
  bob->Start();
  for (size_t i = 1; i < h.sent.size(); ++i) bob->OnMessage(h.sent[i]);
  ASSERT_TRUE(bob->IsDone());
  recon::ReconResult pulled = bob->TakeResult();
  EXPECT_TRUE(pulled.success);
  EXPECT_EQ(pulled.bob_final.size(), h.host.canonical().size());

  EXPECT_FALSE(h.conn.done());
  h.conn.OnStreamEnd(SessionError::kTransportClosed, /*clean=*/true);
  h.conn.Close(0, 0);
  EXPECT_EQ(h.Sessions("@pull:full-transfer", "ok"), 1u);
}

// Sessions pin a generation while a writer applies batches: every
// "@accept" and "@pull-accept" must carry one consistent (generation,
// replica_seq, set size) view. On a journaling host both counters start
// at 0 and each ApplyUpdate advances each by one, so they are equal on
// every reply, and the size must be the one the writer mirrored for that
// generation. No timing is asserted: readers may or may not overlap an
// apply, and either way the view they pin must be whole.
TEST(ConnectionTest, PinnedViewStaysConsistentUnderConcurrentWrites) {
  constexpr size_t kBatches = 200;
  constexpr size_t kInsertsPerBatch = 3;
  constexpr int kReaders = 3;
  replica::Changelog log;
  SyncServerOptions options = HostOptions();
  options.changelog = &log;
  SyncServer host(Cloud(48, 7), std::move(options));
  ASSERT_EQ(host.snapshot()->generation(), 0u);
  ASSERT_EQ(host.replica_seq(), 0u);

  // size_at[g]: the set size the writer mirrored for generation g. Only
  // the writer touches it until the join.
  std::vector<size_t> size_at(kBatches + 1, 0);
  size_at[0] = host.canonical().size();
  const PointSet fresh = Cloud(kBatches * kInsertsPerBatch, 99);
  ASSERT_EQ(fresh.size(), kBatches * kInsertsPerBatch);
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    PointSet previous;
    for (size_t b = 0; b < kBatches; ++b) {
      const PointSet inserts(fresh.begin() + b * kInsertsPerBatch,
                             fresh.begin() + (b + 1) * kInsertsPerBatch);
      // One point the previous batch inserted: present, so the erase
      // applies and the size moves by exactly |inserts| - |erases|.
      PointSet erases;
      if (!previous.empty()) erases.push_back(previous[0]);
      const auto snap = host.ApplyUpdate(inserts, erases);
      size_at[b + 1] = size_at[b] + inserts.size() - erases.size();
      EXPECT_EQ(snap->generation(), b + 1);
      EXPECT_EQ(snap->size(), size_at[b + 1]);
      previous = inserts;
    }
    writing = false;
  });

  struct Pinned {
    uint64_t generation;
    uint64_t size;
  };
  std::vector<std::vector<Pinned>> pinned(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&host, &writing, &pinned, r] {
      bool pull = r % 2 == 1;
      do {
        std::vector<transport::Message> sent;
        Connection conn(&host, [&sent](const transport::Message& message) {
          sent.push_back(message);
          return true;
        });
        Pinned view{};
        uint64_t seq = 0;
        if (pull) {
          PullFrame frame;
          frame.protocol = "full-transfer";
          conn.OnFrame(EncodePull(frame));
          PullAcceptFrame accept;
          ASSERT_FALSE(sent.empty());
          ASSERT_TRUE(DecodePullAccept(sent[0], &accept));
          EXPECT_FALSE(accept.dirty);
          view = {accept.generation, accept.server_set_size};
          seq = accept.seq;
        } else {
          conn.OnFrame(Hello("full-transfer"));
          AcceptFrame accept;
          ASSERT_FALSE(sent.empty());
          ASSERT_TRUE(DecodeAccept(sent[0], &accept));
          view = {accept.generation, accept.server_set_size};
          seq = accept.replica_seq;
        }
        EXPECT_EQ(view.generation, seq);
        pinned[r].push_back(view);
        conn.OnStreamEnd(SessionError::kTransportClosed, /*clean=*/true);
        conn.Close(0, 0);
        pull = !pull;
      } while (writing);
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  for (const std::vector<Pinned>& views : pinned) {
    ASSERT_FALSE(views.empty());
    uint64_t last_generation = 0;
    for (const Pinned& view : views) {
      ASSERT_LE(view.generation, kBatches);
      EXPECT_EQ(view.size, size_at[view.generation])
          << "generation " << view.generation;
      // Publication is ordered: one reader never sees a generation go
      // backwards.
      EXPECT_GE(view.generation, last_generation);
      last_generation = view.generation;
    }
  }
  EXPECT_EQ(host.snapshot()->generation(), kBatches);
  EXPECT_EQ(host.replica_seq(), kBatches);
  EXPECT_EQ(log.last_seq(), kBatches);
}

}  // namespace
}  // namespace server
}  // namespace rsr
