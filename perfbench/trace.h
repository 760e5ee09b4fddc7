// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's layers (net, recon, server, replica); the library itself
// is not instrumented. Each thread appends to its own buffer, so recording
// takes no lock; the buffers are written out once, after the load has
// stopped. A span belongs to the operation (one sync, write or catch-up
// cycle) that caused it and names its enclosing span as parent, so a
// layer's self time can be recovered from the output.
//
// Tracing is decided per operation: an OpScope with traced == false makes
// every SpanScope inside it a no-op that reads no clock.

#ifndef RSR_PERFBENCH_TRACE_H_
#define RSR_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rsr {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  const char* tag = "";  ///< Outcome label, e.g. a round's path.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for an operation's top-level spans.
  uint64_t op = 0;
  int64_t bytes = 0;  ///< Bytes the call moved or produced, when known.
  int64_t items = 0;  ///< Entries the call applied, when known.
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  /// The calling thread's buffer, registered on first use.
  struct ThreadState {
    std::vector<Span> spans;
    uint64_t op = 0;  ///< Current traced operation; 0 = untraced.
    uint64_t parent = 0;
  };
  ThreadState* Local() {
    thread_local ThreadState* state = nullptr;
    if (state == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<ThreadState>());
      state = threads_.back().get();
    }
    return state;
  }

  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// A counter read at the end of the run, written beside the spans.
  void Counter(const std::string& name, int64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.emplace_back(name, value);
  }

  /// Writes every span and counter as one JSON object per line. Call only
  /// after every recording thread has been joined.
  bool WriteJsonl(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& thread : threads_) {
      for (const Span& s : thread->spans) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"tag\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"id\":%llu,\"parent\":%llu,"
                     "\"op\":%llu,\"bytes\":%lld,\"items\":%lld}\n",
                     s.name, s.tag, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op),
                     static_cast<long long>(s.bytes),
                     static_cast<long long>(s.items));
      }
    }
    for (const auto& [name, value] : counters_) {
      std::fprintf(f, "{\"counter\":\"%s\",\"value\":%lld}\n", name.c_str(),
                   static_cast<long long>(value));
    }
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;

  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::atomic<uint64_t> next_id_{0};
  std::vector<std::pair<std::string, int64_t>> counters_;
};

/// Marks the calling thread as running one operation, traced or not.
class OpScope {
 public:
  explicit OpScope(bool traced) : state_(Tracer::Get().Local()) {
    state_->op = traced ? Tracer::Get().NextId() : 0;
    state_->parent = 0;
  }
  ~OpScope() {
    state_->op = 0;
    state_->parent = 0;
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  bool traced() const { return state_->op != 0; }

 private:
  Tracer::ThreadState* const state_;
};

/// One span around a layer call; recorded only inside a traced OpScope.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : state_(Tracer::Get().Local()) {
    if (state_->op == 0) return;
    span_.name = name;
    span_.op = state_->op;
    span_.parent = state_->parent;
    span_.id = Tracer::Get().NextId();
    state_->parent = span_.id;
    span_.start_ns = NowNs();
  }
  ~SpanScope() {
    if (span_.id == 0) return;
    span_.end_ns = NowNs();
    state_->parent = span_.parent;
    state_->spans.push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Backdates the start, for an open-loop write timed from when it was
  /// due rather than from when it ran.
  void set_start(int64_t start_ns) { span_.start_ns = start_ns; }
  void set_tag(const char* tag) { span_.tag = tag; }
  void set_bytes(int64_t bytes) { span_.bytes = bytes; }
  void set_items(int64_t items) { span_.items = items; }

 private:
  Tracer::ThreadState* const state_;
  Span span_;
};

}  // namespace perfbench
}  // namespace rsr

#endif  // RSR_PERFBENCH_TRACE_H_
