// The system under test, built the way a deployment builds it: an MLP
// quantized once to AdaptivFloat<8,3> and written to one AFSNAP01
// snapshot that every worker boots from; a Transformer trained by a short
// fixed recipe, with an AdaptivFloat-8 KV cache calibrated for it; and one
// InferenceServer serving both as two tenants on one queue and one worker
// pool.
//
// The models and the training recipe are fixed constants: they are the
// program being measured, not the workload. Only the request inputs come
// from the workload seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/models/quantized_mlp.hpp"
#include "src/models/trainer.hpp"
#include "src/resilience/guard.hpp"
#include "src/serve/server.hpp"
#include "src/snapshot/snapshot.hpp"

#include "trace.hpp"

namespace sb {

inline constexpr std::int64_t kIn = 128, kHidden = 256, kOut = 32;
inline constexpr std::int64_t kRowsPerRequest = 8;
inline constexpr int kMaxBatch = 8;
inline constexpr std::int64_t kMaxLen = 512;  ///< raised from the default 48
inline constexpr int kTrainSteps = 300;
inline constexpr int kTrainBatch = 16;
inline constexpr float kTrainLr = 2e-3f;
inline constexpr std::uint64_t kModelSeed = 2020;
inline constexpr const char* kMlpTenant = "mlp";
inline constexpr const char* kDecodeTenant = "decode";

/// Wall times of the set-up steps.
struct SetupTimes {
  double quantize_ms = 0.0;  ///< FP32 Linears -> QuantizedMlp (Algorithm 1)
  double write_ms = 0.0;     ///< QuantizedMlp::save
  double open_ms = 0.0;      ///< MappedSnapshot::open
  double train_s = 0.0;
  double kv_calibrate_ms = 0.0;
};

/// Requests the set-up sent to warm the server (counted in its stats).
struct Warmup {
  int oneshot = 0, open = 0, step = 0, close = 0;
};

class Stack {
 public:
  /// Builds everything and boots the server. Returns once every worker
  /// holds its snapshot-booted model and a warm-up burst of each request
  /// kind has been served. A non-null `tracer` wraps the ForwardFn and the
  /// StreamDecoders handed to the server in timing decorators.
  Stack(const std::string& snapshot_path, int workers, Tracer* tracer);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  af::InferenceServer& server() { return *server_; }
  const af::MappedSnapshot& snapshot() const { return *snap_; }
  af::TransformerBundle& transformer() { return *tf_; }
  const af::TransformerDecoder::Options& decoder_options() const {
    return dec_opts_;
  }
  const af::LayerGuard& guard() const { return *guard_; }
  const SetupTimes& times() const { return times_; }
  const Warmup& warmup() const { return warmup_; }

 private:
  void warm_up();

  Tracer* tracer_;
  SetupTimes times_;
  Warmup warmup_;
  std::unique_ptr<af::MappedSnapshot> snap_;
  std::unique_ptr<af::TransformerBundle> tf_;
  af::TransformerDecoder::Options dec_opts_;
  std::unique_ptr<af::LayerGuard> guard_;
  std::atomic<int> booted_{0};
  std::atomic<std::int64_t> decoders_{0};
  std::unique_ptr<af::InferenceServer> server_;  // last: workers use the above
};

}  // namespace sb
