// servebench: the end-to-end benchmark of the serving stack.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR]
//
// Builds the stack (stack.hpp) several times and reports the median
// set-up time, then runs the workload's phases (traffic.hpp) for S seconds
// against InferenceServer's public API, checks every response against
// references computed outside the serving path, and prints one JSON line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A traced run also writes DIR/trace_<workload>.json (Chrome
// trace events) and prints the per-layer span table.
//
// Workloads (README.md gives the reasons):
//   mlp_serve    one-shot open loop, then drain rounds, then a short
//                decode probe
//   decode_long  long closed-loop decode streams, then a one-shot open-loop
//                probe and drain rounds
//   mixed        one-shot open loop and short decode streams sharing the
//                workers, then drain rounds
#include <sched.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kernels/backend.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/hash.hpp"
#include "src/util/parallel.hpp"

#include "common.hpp"
#include "match.hpp"
#include "replay.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace sb {
namespace {

using af::TranslationTask;

constexpr int kSetupReps = 3;
constexpr double kBleuFloor = 40.0;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

const double kProcessStart = now_us();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0 && a.seconds <= 600.0;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_seed && have_seconds && have_trace &&
         (a.workload == "mlp_serve" || a.workload == "decode_long" ||
          a.workload == "mixed");
}

/// The workload's phases, scaled to the run length.
std::vector<PhaseSpec> phases_of(const std::string& workload, double s,
                                 int workers) {
  PhaseSpec oneshot, drain, decode;
  drain.drain = true;
  if (workload == "mlp_serve") {
    oneshot.seconds = 0.50 * s;
    oneshot.rate = 1800.0;
    drain.seconds = 0.25 * s;
    decode.seconds = 0.25 * s;
    decode.clients = 2 * workers;
    return {oneshot, drain, decode};
  }
  if (workload == "decode_long") {
    decode.seconds = 0.70 * s;
    decode.clients = 2 * workers;
    decode.long_streams = true;
    oneshot.seconds = 0.20 * s;
    oneshot.rate = 900.0;
    drain.seconds = 0.10 * s;
    return {decode, oneshot, drain};
  }
  decode.seconds = 0.85 * s;
  decode.rate = 700.0;
  decode.clients = 2 * workers;
  drain.seconds = 0.15 * s;
  return {decode, drain};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Share of CPU time the hypervisor gave to other guests since `prev`
/// (the "steal" column of /proc/stat); updates `prev`.
double steal_share(std::vector<double>& prev) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<double> now;
  in >> cpu;
  for (double v; now.size() < 8 && in >> v;) now.push_back(v);
  double total = 0.0, steal = 0.0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    const double d = now[i] - (prev.size() == now.size() ? prev[i] : 0.0);
    total += d;
    if (i == 7) steal = d;
  }
  prev = now;
  return total > 0.0 ? steal / total : 0.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

af::TokenSeq reference_decode(af::TransformerMT& model,
                              const af::TransformerDecoder::Options& opts,
                              const af::TokenSeq& src, bool long_stream) {
  af::TransformerDecoder dec(model, opts);
  dec.begin(src, TranslationTask::kPad);
  std::vector<std::int64_t> last = {TranslationTask::kBos};
  af::TokenSeq out;
  for (;;) {
    last[0] = af::argmax_rows(dec.step(last))[0];
    out.push_back(last[0]);
    const int n = static_cast<int>(out.size());
    if (long_stream ? n >= kLongSteps
                    : (last[0] == TranslationTask::kEos || n >= kShortCap)) {
      return out;
    }
  }
}

/// Runs fn(i) for i in [0, n) on `threads` threads, each serial-pinned.
void parallel_each(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      af::ScopedSerialExecution serial;
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// The translation a stream carries: its tokens before the first EOS, at
/// most kShortCap of them (long streams run on past EOS, and a source the
/// model never closes must weigh the same in BLEU whatever the stream
/// length).
af::TokenSeq translation(const af::TokenSeq& t) {
  af::TokenSeq out;
  for (std::int64_t tok : t) {
    if (tok == TranslationTask::kEos ||
        static_cast<int>(out.size()) >= kShortCap) {
      break;
    }
    out.push_back(tok);
  }
  return out;
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

class Run {
 public:
  explicit Run(const Args& args) : args_(args) {}
  int main();

 private:
  void print_header();
  void check_accounting(const af::StatsSnapshot& st,
                        const af::HealthReport& health);
  void check_oneshots();
  void check_streams();
  void end_to_end_metrics();
  void per_layer_metrics(std::int64_t dispatches, std::int64_t steady_allocs);

  Args args_;
  int workers_ = 1;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Stack> stack_;
  std::vector<double> setup_s_;
  std::vector<SetupTimes> setup_times_;
  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<Load> load_;
  double peak_rss_mb_ = 0.0;
  double bleu_ = 0.0;
  std::vector<Check> checks_;
  std::map<std::string, Metric> e2e_, layers_;
  /// Printed, not reported: figures whose run-to-run spread on a shared
  /// host exceeds the largest bound the benchmark may set (README.md).
  std::map<std::string, Metric> info_;
};

void Run::print_header() {
  const char* threads = std::getenv("AF_THREADS");
  std::printf("workload %s\n", args_.workload.c_str());
  std::printf("seed %llu\n", static_cast<unsigned long long>(args_.seed));
  std::printf("seconds %.3f\n", args_.seconds);
  std::printf("trace %d\n", args_.trace ? 1 : 0);
  std::printf("cpu %s\n", cpu_model().c_str());
  std::printf("nproc %d\n", nproc());
  std::printf("backend %s\n", af::active_backend().name);
  std::printf("AF_THREADS %s\n", threads != nullptr ? threads : "unset");
  std::printf("workers %d\n", workers_);
  std::fflush(stdout);
}

void Run::check_accounting(const af::StatsSnapshot& st,
                           const af::HealthReport& health) {
  // Client side, per operation kind: every attempt either answered ok or
  // failed (rejected at admission or answered with an error).
  std::int64_t ok_oneshot = 0, ok_open = 0, ok_step = 0, ok_close = 0;
  for (const OneShotRec& r : load_->oneshots) ok_oneshot += r.ok ? 1 : 0;
  for (const OpRec& op : load_->ops) {
    if (!op.ok) continue;
    if (op.op == af::DecodeOp::kOpen) ++ok_open;
    if (op.op == af::DecodeOp::kStep) ++ok_step;
    if (op.op == af::DecodeOp::kClose) ++ok_close;
  }
  const Load& l = *load_;
  const bool client =
      l.oneshot_n.attempted == ok_oneshot + l.oneshot_n.failed &&
      l.open_n.attempted == ok_open + l.open_n.failed &&
      l.step_n.attempted == ok_step + l.step_n.failed &&
      l.close_n.attempted == ok_close + l.close_n.failed;
  checks_.push_back({"accounting.client", client, ""});

  // Server side, read after shutdown(): the counters then include every
  // completion, and must agree with what the client saw (set-up warm-up
  // requests included).
  const Warmup& w = stack_->warmup();
  const std::int64_t attempted = l.oneshot_n.attempted + l.open_n.attempted +
                                 l.step_n.attempted + l.close_n.attempted +
                                 w.oneshot + w.open + w.step + w.close;
  const std::int64_t ok_all = ok_oneshot + ok_open + ok_step + ok_close +
                              w.oneshot + w.open + w.step + w.close;
  const std::int64_t rejected =
      st.rejected_overload + st.rejected_open + st.rejected_shutdown;
  const bool server = st.submitted == attempted &&
                      st.submitted == st.admitted + rejected &&
                      st.admitted == st.completed + st.failed &&
                      st.completed == ok_all &&
                      st.decode_opened == ok_open + w.open &&
                      st.decode_steps == ok_step + w.step &&
                      st.decode_closed == ok_close + w.close;
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "submitted %lld completed %lld failed %lld (client %lld ok)",
                static_cast<long long>(st.submitted),
                static_cast<long long>(st.completed),
                static_cast<long long>(st.failed),
                static_cast<long long>(ok_all));
  checks_.push_back({"accounting.server", server, detail});

  // Clean traffic must leave every tenant's breaker closed at the top of
  // its ladder and no worker wedged.
  bool healthy = health.workers_wedged == 0;
  for (const af::TenantHealth& t : health.tenants) {
    healthy = healthy && t.state == af::BreakerState::kClosed && t.level == 0;
  }
  checks_.push_back({"health.clean", healthy, ""});
}

void Run::check_oneshots() {
  af::ScopedSerialExecution serial;
  // Solo reference: a QuantizedMlp booted from the same snapshot, run
  // through its own session under the served policy.
  af::QuantizedMlp ref(stack_->snapshot());
  af::SessionConfig sc;
  sc.ctx.resilience = af::ResiliencePolicy::kAbftGuard;
  sc.ctx.guard = &stack_->guard();
  af::InferenceSession session(
      [&ref](const af::Tensor& x, af::ExecutionContext& ctx) {
        return ref.forward(x, ctx);
      },
      sc);
  std::vector<std::uint64_t> want;
  for (const af::Tensor& x : inputs_->mlp) {
    const af::Tensor& y = session.run(x);
    want.push_back(af::fnv1a64(
        y.data(), static_cast<std::size_t>(y.numel()) * sizeof(float)));
  }
  std::int64_t checked = 0, bad = 0;
  for (const OneShotRec& r : load_->oneshots) {
    if (!r.ok) continue;
    ++checked;
    if (r.digest != want[r.pool]) ++bad;
  }
  checks_.push_back({"oneshot.bit_identical_to_solo", bad == 0,
                     std::to_string(checked - bad) + "/" +
                         std::to_string(checked)});

  // FP64 reference from the decoded weights, biases and ReLU, with a
  // norm-scaled bound: |y - y64| <= (K1 + K2) * eps * (|W2| (|W1||x| +
  // |b1|) + |b2|), the magnitude every float rounding on the path scales by.
  const af::Tensor& w1 = ref.fc1().decoded_weight();
  const af::Tensor w2 = ref.fc2().decoded_weight();
  const af::Tensor& b1 = ref.fc1().bias();
  const af::Tensor& b2 = ref.fc2().bias();
  const double tol = static_cast<double>(kIn + kHidden) * FLT_EPSILON;
  std::int64_t compared = 0, outside = 0;
  double worst = 0.0;
  for (std::size_t p = 0; p < inputs_->mlp.size(); ++p) {
    if (!load_->first_output[p]) continue;
    const af::Tensor& x = inputs_->mlp[p];
    const af::Tensor& y = *load_->first_output[p];
    for (std::int64_t r = 0; r < kRowsPerRequest; ++r) {
      std::vector<double> h(kHidden), hmag(kHidden);
      for (std::int64_t k = 0; k < kHidden; ++k) {
        double acc = b1.data()[k], mag = std::fabs(b1.data()[k]);
        for (std::int64_t j = 0; j < kIn; ++j) {
          const double a = w1.data()[k * kIn + j];
          const double xv = x.data()[r * kIn + j];
          acc += a * xv;
          mag += std::fabs(a * xv);
        }
        h[k] = acc > 0.0 ? acc : 0.0;
        hmag[k] = mag;
      }
      for (std::int64_t i = 0; i < kOut; ++i) {
        double acc = b2.data()[i], mag = std::fabs(b2.data()[i]);
        for (std::int64_t k = 0; k < kHidden; ++k) {
          const double a = w2.data()[i * kHidden + k];
          acc += a * h[k];
          mag += std::fabs(a) * hmag[k];
        }
        const double err = std::fabs(y.data()[r * kOut + i] - acc);
        worst = std::max(worst, err / (tol * mag));
        ++compared;
        if (err > tol * mag) ++outside;
      }
    }
  }
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "%lld values, worst %.4f of the bound",
                static_cast<long long>(compared), worst);
  checks_.push_back({"oneshot.within_fp64_bound", outside == 0 && compared > 0,
                     detail});
}

void Run::check_streams() {
  // Reference: each source decoded by its own TransformerDecoder outside
  // the server, with the served stopping rule.
  af::TransformerBundle& tf = stack_->transformer();
  std::vector<std::pair<bool, std::uint32_t>> keys;
  std::map<std::pair<bool, std::uint32_t>, std::size_t> slot;
  for (const StreamRec& s : load_->streams) {
    const auto key = std::make_pair(s.long_stream, s.pool);
    if (slot.emplace(key, keys.size()).second) keys.push_back(key);
  }
  std::vector<af::TokenSeq> ref(keys.size());
  parallel_each(static_cast<int>(keys.size()), std::max(1, nproc() - 1),
                [&](int i) {
    const auto [long_stream, pool] = keys[static_cast<std::size_t>(i)];
    const af::TokenSeq& src = long_stream ? inputs_->long_src[pool]
                                          : inputs_->short_src[pool];
    ref[static_cast<std::size_t>(i)] = reference_decode(
        tf.model, stack_->decoder_options(), src, long_stream);
  });

  // BLEU scores each source once, on the first stream that decoded it:
  // the corpus is then the seeded source pool, whatever the number of
  // streams a run completes.
  std::int64_t complete = 0, bad = 0;
  std::vector<af::TokenSeq> refs, hyps;
  std::vector<bool> scored(keys.size());
  for (const StreamRec& s : load_->streams) {
    if (!s.complete) continue;
    ++complete;
    const std::size_t k = slot.at({s.long_stream, s.pool});
    if (s.tokens != ref[k]) ++bad;
    if (scored[k]) continue;
    scored[k] = true;
    const af::TokenSeq& src =
        s.long_stream ? inputs_->long_src[s.pool] : inputs_->short_src[s.pool];
    refs.push_back(tf.task.translate(src));
    hyps.push_back(translation(s.tokens));
  }
  checks_.push_back({"decode.streams_equal_solo", bad == 0 && complete > 0,
                     std::to_string(complete - bad) + "/" +
                         std::to_string(complete)});
  bleu_ = hyps.empty() ? 0.0 : af::bleu_score(refs, hyps);
  char detail[64];
  std::snprintf(detail, sizeof(detail), "%.2f (floor %.1f)", bleu_,
                kBleuFloor);
  checks_.push_back({"decode.bleu_floor", bleu_ >= kBleuFloor, detail});
}

void Run::end_to_end_metrics() {
  const Load& l = *load_;
  std::vector<double> request, ttft, itl;
  for (const OneShotRec& r : l.oneshots) {
    if (r.ok && !r.drain) request.push_back((r.t1 - r.sched) + r.total_us);
  }
  // Inter-token latency on the server's clock (kStep admission to its
  // token), so a descheduled generator thread does not count as serving
  // time; TTFT is what a client sees from kOpen to its first token.
  for (const OpRec& op : l.ops) {
    if (op.ok && op.op == af::DecodeOp::kStep) itl.push_back(op.total_us);
  }
  for (const StreamRec& s : l.streams) {
    if (s.step_ops.empty()) continue;
    ttft.push_back(l.ops[s.step_ops.front()].done - l.ops[s.open_op].t0);
  }
  e2e_["setup_s"] = {median(setup_s_), "s"};
  e2e_["peak_rss_mb"] = {peak_rss_mb_, "MiB"};
  info_["request_p50_us"] = {percentile(request, 0.50), "us"};
  info_["request_p99_us"] = {percentile(request, 0.99), "us"};
  e2e_["drain_rps"] = {median(l.drain_rps), "req/s"};
  info_["tokens_per_s"] = {
      l.decode_seconds > 0.0 ? static_cast<double>(l.tokens) / l.decode_seconds
                             : 0.0,
      "tokens/s"};
  info_["ttft_p50_us"] = {percentile(ttft, 0.50), "us"};
  info_["ttft_p99_us"] = {percentile(ttft, 0.99), "us"};
  e2e_["itl_p50_us"] = {percentile(itl, 0.50), "us"};
  info_["itl_p99_us"] = {percentile(itl, 0.99), "us"};
  e2e_["bleu"] = {bleu_, "BLEU"};
  std::printf("samples request %zu ttft %zu itl %zu drain_rounds %zu\n",
              request.size(), ttft.size(), itl.size(), l.drain_rps.size());
}

void Run::per_layer_metrics(std::int64_t dispatches,
                            std::int64_t steady_allocs) {
  const Load& l = *load_;
  std::vector<double> lag, submit, queue;
  double batches = 0.0, coalesce = 0.0, members = 0.0;
  // Drain requests wait in a pre-filled queue by design; submit and queue
  // figures cover the open-loop and decode traffic only.
  for (const OneShotRec& r : l.oneshots) {
    if (!r.drain) {
      submit.push_back(r.t1 - r.t0);
      lag.push_back(r.t0 - r.sched);
      if (r.ok) queue.push_back(r.queue_us);
    }
    if (!r.ok) continue;
    members += 1.0;
    batches += 1.0 / r.batch;
    coalesce += r.coalesce_us / r.batch;
  }
  std::int64_t completed = 0;
  for (const OneShotRec& r : l.oneshots) completed += r.ok ? 1 : 0;
  for (const OpRec& op : l.ops) {
    submit.push_back(op.t1 - op.t0);
    if (op.ok) {
      queue.push_back(op.queue_us);
      ++completed;
    }
  }
  const LinkedSpans linked = link_spans(*tracer_, l);
  std::printf("trace spans %zu dropped %llu unmatched_requests %zu\n",
              tracer_->size(),
              static_cast<unsigned long long>(tracer_->dropped()),
              linked.unmatched);

  auto med = [](const std::vector<SetupTimes>& v, auto field) {
    std::vector<double> x;
    for (const SetupTimes& t : v) x.push_back(t.*field);
    return median(std::move(x));
  };
  layers_["loadgen.lag_p99_us"] = {percentile(lag, 0.99), "us"};
  layers_["serve.submit_p50_us"] = {percentile(submit, 0.50), "us"};
  layers_["serve.queue_wait_p50_us"] = {percentile(queue, 0.50), "us"};
  layers_["serve.queue_wait_p99_us"] = {percentile(queue, 0.99), "us"};
  layers_["serve.batch_occupancy"] = {batches > 0 ? members / batches : 0.0,
                                       "requests"};
  layers_["serve.coalesce_wait_us"] = {batches > 0 ? coalesce / batches : 0.0,
                                        "us"};
  layers_["serve.self_p50_us"] = {percentile(linked.serve_self_us, 0.50),
                                   "us"};
  layers_["runtime.forward_p50_us"] = {percentile(linked.forward_us, 0.50),
                                        "us"};
  layers_["runtime.forward_p99_us"] = {percentile(linked.forward_us, 0.99),
                                        "us"};
  layers_["runtime.steady_state_allocs"] = {
      static_cast<double>(steady_allocs), "count"};
  layers_["runtime.decoder_build_p50_us"] = {
      percentile(linked.build_us, 0.50), "us"};
  layers_["runtime.prefill_p50_us"] = {percentile(linked.prefill_us, 0.50),
                                        "us"};
  layers_["runtime.step_p50_us"] = {percentile(linked.step_us, 0.50), "us"};
  layers_["runtime.step_p99_us"] = {percentile(linked.step_us, 0.99), "us"};
  layers_["kernels.dispatches_per_request"] = {
      completed > 0 ? static_cast<double>(dispatches) /
                          static_cast<double>(completed)
                    : 0.0,
      "count"};
  layers_["models.train_s"] = {med(setup_times_, &SetupTimes::train_s), "s"};
  layers_["models.kv_calibrate_ms"] = {
      med(setup_times_, &SetupTimes::kv_calibrate_ms), "ms"};
  layers_["core.quantize_ms"] = {med(setup_times_, &SetupTimes::quantize_ms),
                                  "ms"};
  layers_["snapshot.write_ms"] = {med(setup_times_, &SetupTimes::write_ms),
                                   "ms"};
  layers_["snapshot.open_ms"] = {med(setup_times_, &SetupTimes::open_ms),
                                  "ms"};

  for (const auto& [name, value] : solo_replays(*stack_)) {
    const char* unit = "us";
    if (name.find("gflops") != std::string::npos) unit = "GFLOP/s";
    if (name.find("ns_per_code") != std::string::npos) unit = "ns";
    if (name.find("bytes") != std::string::npos) unit = "bytes";
    layers_[name] = {value, unit};
  }

  tracer_->print_layer_table();
  const std::string path =
      args_.out_dir + "/trace_" + args_.workload + ".json";
  if (tracer_->write_chrome_json(path)) {
    std::printf("trace written to %s\n", path.c_str());
  } else {
    checks_.push_back({"trace.write", false, path});
  }
}

int Run::main() {
  // Workers plus the generator stay below nproc: on a shared virtual
  // machine, keeping every vCPU busy invites the hypervisor to steal
  // multi-millisecond slices from all of them.
  workers_ = std::clamp(nproc() - 2, 1, 3);
  print_header();
  if (args_.trace) tracer_ = std::make_unique<Tracer>(kTraceCapacity);

  std::vector<double> cpu_times;
  steal_share(cpu_times);
  const std::string snapshot = args_.out_dir + "/servebench_mlp.afsnap";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack_.reset();
    const double t0 = rep == 0 ? kProcessStart : now_us();
    stack_ = std::make_unique<Stack>(snapshot, workers_, tracer_.get());
    setup_s_.push_back((now_us() - t0) / 1e6);
    setup_times_.push_back(stack_->times());
  }

  inputs_ = std::make_unique<Inputs>(args_.seed, stack_->transformer().task);
  load_ = std::make_unique<Load>(stack_->server(), *inputs_, args_.seed,
                                 tracer_.get());
  std::printf("setup_s");
  for (double v : setup_s_) std::printf(" %.3f", v);
  std::printf(" (cpu steal %.1f%%)\n", 100.0 * steal_share(cpu_times));
  const af::BackendKind kind = af::active_backend().kind;
  const std::uint64_t dispatch0 = af::backend_dispatch_count(kind);
  for (const PhaseSpec& p : phases_of(args_.workload, args_.seconds, workers_)) {
    load_->run(p);
  }
  const std::uint64_t dispatch1 = af::backend_dispatch_count(kind);
  peak_rss_mb_ = peak_rss_mb();
  std::printf("phases done (cpu steal %.1f%%)\n",
              100.0 * steal_share(cpu_times));

  af::InferenceServer& server = stack_->server();
  server.shutdown();
  check_accounting(server.stats(), server.health());
  check_oneshots();
  check_streams();

  const Load& l = *load_;
  std::printf("ops oneshot attempted %lld failed %lld\n",
              static_cast<long long>(l.oneshot_n.attempted),
              static_cast<long long>(l.oneshot_n.failed));
  std::printf("ops open attempted %lld failed %lld\n",
              static_cast<long long>(l.open_n.attempted),
              static_cast<long long>(l.open_n.failed));
  std::printf("ops step attempted %lld failed %lld\n",
              static_cast<long long>(l.step_n.attempted),
              static_cast<long long>(l.step_n.failed));
  std::printf("ops close attempted %lld failed %lld\n",
              static_cast<long long>(l.close_n.attempted),
              static_cast<long long>(l.close_n.failed));

  // A traced run prints its end-to-end figures too (the difference to an
  // untraced run is the tracing overhead) but reports the per-layer ones.
  end_to_end_metrics();
  if (args_.trace) {
    per_layer_metrics(static_cast<std::int64_t>(dispatch1 - dispatch0),
                      server.max_steady_state_allocs());
  }
  const std::map<std::string, Metric>& reported = args_.trace ? layers_ : e2e_;

  bool correct = true;
  for (const Check& c : checks_) {
    std::printf("check %-32s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
    correct = correct && c.ok;
  }
  for (const auto* set : {&e2e_, &layers_, &info_}) {
    for (const auto& [name, m] : *set) {
      std::printf("%s %-36s %14.4f %s\n", set == &info_ ? "info  " : "metric",
                  name.c_str(), m.value, m.unit);
    }
  }

  const std::int64_t attempted = l.oneshot_n.attempted + l.open_n.attempted +
                                 l.step_n.attempted + l.close_n.attempted;
  const std::int64_t failed = l.oneshot_n.failed + l.open_n.failed +
                              l.step_n.failed + l.close_n.failed;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : reported) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace sb

int main(int argc, char** argv) {
  sb::Args args;
  if (!sb::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload mlp_serve|decode_long|mixed "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    return sb::Run(args).main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
