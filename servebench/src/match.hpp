// Ties the spans the decorators recorded on worker threads to the
// requests the generator sent, after the server has been shut down.
//
// The server hands its callee no request id, so the tie is made by time:
// a request's execution runs from submit + queue_us to submit + total_us
// (server clock, which is the benchmark's clock), and the forward or
// decoder call that served it lies inside that interval. One-shot
// requests take the latest-ending forward of matching row count inside
// their interval (a planning forward on the same worker runs earlier).
// Decode streams own their decoder: each decoder instance is tied to the
// stream whose kOpen interval holds its build and prefill, and its k-th
// step to the stream's k-th kStep.
#pragma once

#include <vector>

#include "trace.hpp"
#include "traffic.hpp"

namespace sb {

struct LinkedSpans {
  std::vector<double> forward_us;  ///< each matched batch forward once
  std::vector<double> build_us, prefill_us, step_us;
  /// Per one-shot and kStep request: execution time minus its forward or
  /// step, i.e. what the serving layer itself spent.
  std::vector<double> serve_self_us;
  std::size_t unmatched = 0;  ///< requests whose span was not found
};

LinkedSpans link_spans(Tracer& tracer, const Load& load);

}  // namespace sb
