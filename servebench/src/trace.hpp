// In-memory span recorder for the traced run.
//
// Spans go into one buffer preallocated at start-up; recording is an
// atomic slot claim plus a plain store, so the decorators add no heap
// allocation to the serving hot path. A span that finds the buffer full
// is counted as dropped, never blocks. Parent links and request ids of
// server-side spans are filled in after the run, once every worker has
// been joined (see match.hpp), so the post-processing below
// is single-threaded.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sb {

struct Span {
  const char* name = nullptr;  ///< static string: the layer boundary
  std::uint64_t req = 0;       ///< request id; spans of one request share it
  std::uint64_t parent = 0;    ///< id of the enclosing span (0 = root)
  double t0 = 0.0, t1 = 0.0;   ///< steady-clock microseconds
  std::int64_t arg = 0;        ///< rows of a forward / decoder instance
  int tid = 0;                 ///< 0 = generator thread, then first-use order
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records one span from the calling thread; returns its id (index + 1),
  /// or 0 when the buffer is full.
  std::uint64_t record(const char* name, double t0, double t1,
                       std::uint64_t req = 0, std::uint64_t parent = 0,
                       std::int64_t arg = 0);

  /// Adds a parent -> child edge once recording threads are joined: a
  /// batched forward is a child of every member's serve.exec span. The
  /// child inherits the parent's request id when it has none.
  void link(std::uint64_t parent, std::uint64_t child);

  /// Recorded spans (call only once recording threads are joined).
  std::size_t size() const;
  Span& at(std::uint64_t id) { return spans_[id - 1]; }
  const Span& at(std::uint64_t id) const { return spans_[id - 1]; }
  std::uint64_t dropped() const { return dropped_.load(); }

  /// Self time of every span: its duration minus the union of the
  /// intervals its child spans cover. Indexed by id - 1.
  std::vector<double> self_times() const;

  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome_json(const std::string& path) const;

  /// Prints one row per span name: count, total and self milliseconds,
  /// and the p50/p99 of the span durations.
  void print_layer_table() const;

 private:
  std::vector<std::vector<std::uint64_t>> parents() const;

  std::vector<Span> spans_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> links_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace sb
