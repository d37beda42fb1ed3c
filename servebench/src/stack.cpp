#include "stack.hpp"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/nn/linear.hpp"
#include "src/util/fault.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

#include "common.hpp"

namespace sb {

using af::TranslationTask;

namespace {

/// Timing decorator around one stream's decoder: records the prefill and
/// every step as spans tagged with the decoder's instance number, so the
/// spans can be tied back to the stream that owned the decoder.
class TimedDecoder final : public af::StreamDecoder {
 public:
  TimedDecoder(std::unique_ptr<af::StreamDecoder> inner, Tracer& tracer,
               std::int64_t instance)
      : inner_(std::move(inner)), tracer_(tracer), instance_(instance) {}

  void open(const std::vector<std::int64_t>& src) override {
    const double t0 = now_us();
    inner_->open(src);
    tracer_.record("runtime.prefill", t0, now_us(), 0, 0, instance_);
  }
  std::int64_t step(std::int64_t last_token) override {
    const double t0 = now_us();
    const std::int64_t token = inner_->step(last_token);
    tracer_.record("runtime.step", t0, now_us(), 0, 0, instance_);
    return token;
  }
  std::int64_t bos_token() const override { return inner_->bos_token(); }
  std::int64_t eos_token() const override { return inner_->eos_token(); }
  std::size_t cache_bytes() const override { return inner_->cache_bytes(); }

 private:
  std::unique_ptr<af::StreamDecoder> inner_;
  Tracer& tracer_;
  std::int64_t instance_;
};

double ms_since(double t0_us) { return (now_us() - t0_us) / 1e3; }

}  // namespace

Stack::Stack(const std::string& snapshot_path, int workers, Tracer* tracer)
    : tracer_(tracer) {
  // Set-up runs on one thread: its time then does not hinge on the
  // slowest of several vCPUs at every parallel barrier.
  af::ScopedSerialExecution serial;
  auto span = [&](const char* name, double t0) {
    if (tracer_ != nullptr) tracer_->record(name, t0, now_us());
  };

  // MLP: quantize once, persist, boot every worker from the snapshot.
  {
    af::Pcg32 r1(kModelSeed, 1), r2(kModelSeed, 2);
    af::Linear fc1(kIn, kHidden, r1, true, "fc1");
    af::Linear fc2(kHidden, kOut, r2, true, "fc2");
    double t0 = now_us();
    af::QuantizedMlp built(fc1, fc2, /*bits=*/8, /*exp_bits=*/3);
    times_.quantize_ms = ms_since(t0);
    span("core.quantize", t0);
    t0 = now_us();
    built.save(snapshot_path);
    times_.write_ms = ms_since(t0);
    span("snapshot.write", t0);
  }
  double t0 = now_us();
  snap_ = std::make_unique<af::MappedSnapshot>(
      af::MappedSnapshot::open(snapshot_path));
  times_.open_ms = ms_since(t0);
  span("snapshot.open", t0);

  // Transformer: short fixed training recipe, then KV calibration.
  af::TransformerConfig cfg;
  cfg.max_len = kMaxLen;
  tf_ = std::make_unique<af::TransformerBundle>(kModelSeed, cfg);
  t0 = now_us();
  af::train_transformer(*tf_, kTrainSteps, kTrainBatch, kTrainLr,
                        kModelSeed + 1);
  times_.train_s = ms_since(t0) / 1e3;
  span("models.train", t0);
  t0 = now_us();
  af::calibrate_transformer_kv(*tf_, 16, kModelSeed + 7);
  times_.kv_calibrate_ms = ms_since(t0);
  span("models.kv_calibrate", t0);
  dec_opts_.kv.quantized = true;
  dec_opts_.kv.kind = af::FormatKind::kAdaptivFloat;
  dec_opts_.kv.bits = 8;

  guard_ = std::make_unique<af::LayerGuard>(
      "serve", af::GuardConfig{af::RecoveryPolicy::kDegradeToZero, 1, 0.0f});

  af::ServerConfig sc;
  sc.workers = workers;
  sc.queue_capacity = 4096;
  sc.queue_shards = 4;
  // Generous: a run on a shared host must not turn a descheduled worker
  // into a failed request.
  sc.watchdog.wedge_timeout = std::chrono::seconds(10);
  // Batches form from what is already queued (bursts, drain rounds); a
  // worker never waits for more. A waiting window is a chain of short
  // sleeps whose wake-ups a shared host delays by milliseconds, which made
  // one-shot latency at low load vary by a quarter between runs.
  sc.batch.max_batch = kMaxBatch;
  sc.batch.coalesce_window = std::chrono::microseconds(0);
  sc.batch.plan_rows = kMaxBatch * kRowsPerRequest;
  sc.decoder_factory = [this]() -> std::unique_ptr<af::StreamDecoder> {
    const double b0 = now_us();
    auto dec = std::make_unique<af::TransformerStreamDecoder>(
        tf_->model, dec_opts_, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos);
    if (tracer_ == nullptr) return dec;
    const std::int64_t instance = decoders_.fetch_add(1) + 1;
    tracer_->record("runtime.decoder_build", b0, now_us(), 0, 0, instance);
    return std::make_unique<TimedDecoder>(std::move(dec), *tracer_, instance);
  };
  auto factory = [this](int) -> af::InferenceSession::ForwardFn {
    auto model = std::make_shared<af::QuantizedMlp>(*snap_);
    booted_.fetch_add(1);
    if (tracer_ == nullptr) {
      return [model](const af::Tensor& x, af::ExecutionContext& ctx) {
        return model->forward(x, ctx);
      };
    }
    Tracer* tr = tracer_;
    return [model, tr](const af::Tensor& x, af::ExecutionContext& ctx) {
      const double f0 = now_us();
      af::Tensor y = model->forward(x, ctx);
      tr->record("runtime.forward", f0, now_us(), 0, 0, x.dim(0));
      return y;
    };
  };
  server_ = std::make_unique<af::InferenceServer>(factory, sc);

  af::TenantConfig mlp;
  mlp.name = kMlpTenant;
  mlp.guard = guard_.get();
  server_->add_tenant(mlp);
  af::TenantConfig dec;
  dec.name = kDecodeTenant;
  server_->add_tenant(dec);

  const double boot_deadline = now_us() + 30e6;
  while (booted_.load() < workers) {
    if (now_us() > boot_deadline) {
      throw af::FaultError("servebench", af::FaultKind::kUncorrectable,
                           "server workers did not boot");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  warm_up();
}

void Stack::warm_up() {
  // One burst of one-shot requests (plans the workers' sessions at the
  // batch peak) and one short decode stream; any failure aborts set-up.
  af::Pcg32 rng(kModelSeed, 0x3a);
  const af::Tensor x = af::Tensor::randn({kRowsPerRequest, kIn}, rng);
  std::vector<std::future<af::Response>> futs;
  for (int i = 0; i < 4 * kMaxBatch; ++i) {
    futs.push_back(server_->submit({kMlpTenant, x, {}}));
    ++warmup_.oneshot;
  }
  auto expect_ok = [](std::future<af::Response> f) {
    af::Response r = f.get();
    if (!r.ok) {
      throw af::FaultError("servebench", r.error_kind,
                           "warm-up request failed: " + r.error);
    }
    return r;
  };
  for (auto& f : futs) expect_ok(std::move(f));

  af::DecodeRequest req;
  req.tenant = kDecodeTenant;
  req.stream = "warmup";
  req.op = af::DecodeOp::kOpen;
  req.src = {TranslationTask::kFirstWord, TranslationTask::kFirstWord + 1,
             TranslationTask::kFirstWord + 2, TranslationTask::kFirstWord + 3,
             TranslationTask::kFirstWord + 4};
  std::int64_t last = expect_ok(server_->submit_decode(req)).token;
  ++warmup_.open;
  req.op = af::DecodeOp::kStep;
  req.src.clear();
  for (int i = 0; i < 2; ++i) {
    req.last_token = last;
    last = expect_ok(server_->submit_decode(req)).token;
    ++warmup_.step;
  }
  req.op = af::DecodeOp::kClose;
  expect_ok(server_->submit_decode(req));
  ++warmup_.close;
}

}  // namespace sb
