// Load generation: one generator thread drives the server through its
// public API only (submit / submit_decode). Three kinds of phase:
//
//  * open loop — one-shot requests at seeded Poisson arrival times with
//    occasional back-to-back bursts; each request is timed from the time it
//    was due, so a stalled generator or server shows in the latency;
//  * closed-loop decode clients — each opens a stream, steps it, closes it
//    and opens the next; the next request is sent only when the previous
//    one has returned. Long streams step a fixed length past EOS; short
//    streams stop at EOS;
//  * drain — rounds of a pre-filled queue of one-shot requests, each round
//    timed from its first submit to its last response.
//
// Open-loop and decode clients can share one phase (the mixed workload).
// The generator spins between events instead of sleeping, so its send
// times do not depend on timer slack.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "src/data/metrics.hpp"
#include "src/data/translation_task.hpp"
#include "src/serve/server.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/rng.hpp"

#include "trace.hpp"

namespace sb {

inline constexpr int kLongSteps = 480;      ///< tokens per long stream
inline constexpr int kShortCap = 24;        ///< short streams stop at EOS or here
inline constexpr int kDrainRequests = 2048; ///< requests per drain round
inline constexpr int kMinDrainRounds = 5;

/// Seeded request inputs; the server receives nothing else.
struct Inputs {
  Inputs(std::uint64_t seed, const af::TranslationTask& task);
  std::vector<af::Tensor> mlp;            ///< one-shot payloads [8, 128]
  std::vector<af::TokenSeq> long_src;     ///< sources of long streams
  std::vector<af::TokenSeq> short_src;    ///< sources of short streams
};

struct PhaseSpec {
  double seconds = 0.0;
  double rate = 0.0;          ///< open-loop arrivals per second (0 = none)
  double burst_prob = 0.01;   ///< chance an arrival starts a burst
  int burst_size = 16;        ///< back-to-back requests in a burst
  int clients = 0;            ///< closed-loop decode clients
  bool long_streams = false;
  bool drain = false;         ///< closed-loop drain rounds instead
};

struct OneShotRec {
  std::uint32_t pool = 0;
  bool drain = false;
  double sched = 0.0, t0 = 0.0, t1 = 0.0;  ///< due; around submit()
  bool ok = false;
  std::uint64_t digest = 0;
  int batch = 0;
  double queue_us = 0.0, total_us = 0.0, coalesce_us = 0.0;
  std::uint64_t exec_span = 0;  ///< traced runs: its serve.exec span
};

struct OpRec {
  af::DecodeOp op = af::DecodeOp::kStep;
  std::uint32_t stream = 0;
  double t0 = 0.0, t1 = 0.0, done = 0.0;  ///< around submit(); response seen
  bool ok = false;
  double queue_us = 0.0, total_us = 0.0;
  std::uint64_t exec_span = 0;
};

struct StreamRec {
  std::uint32_t pool = 0;
  bool long_stream = false;
  bool complete = false;  ///< every op of the stream succeeded
  af::TokenSeq tokens;
  std::uint32_t open_op = 0;
  std::vector<std::uint32_t> step_ops;
};

struct Counts {
  std::int64_t attempted = 0, failed = 0;
};

class Load {
 public:
  Load(af::InferenceServer& server, const Inputs& inputs, std::uint64_t seed,
       Tracer* tracer);

  void run(const PhaseSpec& phase);

  std::vector<OneShotRec> oneshots;
  std::vector<OpRec> ops;
  std::vector<StreamRec> streams;
  Counts oneshot_n, open_n, step_n, close_n;
  std::vector<double> drain_rps;  ///< one per drain round
  std::int64_t tokens = 0;        ///< step responses in decode phases
  double decode_seconds = 0.0;    ///< wall time of the decode phases
  /// One served output per one-shot pool entry, for the FP64 check.
  std::vector<std::optional<af::Tensor>> first_output;

 private:
  struct Client {
    enum State { kIdle, kOpening, kStepping, kClosing, kDone } state = kIdle;
    std::uint32_t stream = 0;
    std::uint32_t op = 0;
    std::int64_t last = 0;
    std::future<af::Response> fut;
  };

  void send_oneshot(double sched, bool drain);
  void harvest(std::size_t idx, std::future<af::Response>& fut);
  void start_stream(Client& c, bool long_stream);
  bool submit_op(Client& c, af::DecodeOp op);
  void on_response(Client& c, bool long_stream);
  Counts& counts(af::DecodeOp op);

  af::InferenceServer& server_;
  const Inputs& inputs_;
  Tracer* tracer_;
  af::Pcg32 arrivals_, picks_;
  std::uint32_t next_long_ = 0, next_short_ = 0;
  std::deque<std::pair<std::size_t, std::future<af::Response>>> pending_;
};

}  // namespace sb
