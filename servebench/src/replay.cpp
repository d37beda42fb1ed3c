#include "replay.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernels/backend.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/nn/kv_cache.hpp"
#include "src/resilience/codec.hpp"
#include "src/runtime/session.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

#include "common.hpp"

namespace sb {

namespace {

/// Median wall time of `reps` calls, in microseconds.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    fn();
    v.push_back(now_us() - t0);
  }
  return median(std::move(v));
}

/// Median time of one TransformerDecoder::step with `pos` steps already
/// cached: each rep re-opens the stream, steps to pos - 4 untimed, then
/// times 8 steps around pos.
double decode_step_us(af::TransformerDecoder& dec, const af::TokenSeq& src,
                      int pos, int reps) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    dec.begin(src, af::TranslationTask::kPad);
    std::vector<std::int64_t> last = {af::TranslationTask::kBos};
    for (int i = 0; i < pos + 4; ++i) {
      const double t0 = now_us();
      const af::Tensor& logits = dec.step(last);
      if (i >= pos - 4) v.push_back(now_us() - t0);
      last[0] = af::argmax_rows(logits)[0];
    }
  }
  return median(std::move(v));
}

}  // namespace

std::map<std::string, double> solo_replays(Stack& stack) {
  // Workers run every call inline on their own thread; so do the replays.
  af::ScopedSerialExecution serial;
  std::map<std::string, double> m;
  af::Pcg32 rng(kModelSeed, 0x5e);
  const af::KernelBackend& be = af::active_backend();

  // models: QuantizedMlp booted from the served snapshot, through a session.
  af::QuantizedMlp mlp(stack.snapshot());
  af::SessionConfig sc;
  sc.ctx.resilience = af::ResiliencePolicy::kAbftGuard;
  sc.ctx.guard = &stack.guard();
  af::InferenceSession session(
      [&mlp](const af::Tensor& x, af::ExecutionContext& ctx) {
        return mlp.forward(x, ctx);
      },
      sc);
  const af::Tensor x8 = af::Tensor::randn({8, kIn}, rng);
  const af::Tensor x64 = af::Tensor::randn({64, kIn}, rng);
  session.plan(x64);
  m["models.mlp_forward_us.m8"] = median_us(600, [&] { session.run(x8); });
  m["models.mlp_forward_us.m64"] = median_us(300, [&] { session.run(x64); });
  session.context().resilience = af::ResiliencePolicy::kNone;
  session.plan(x64);
  m["models.mlp_forward_us.m64.none"] =
      median_us(300, [&] { session.run(x64); });

  // kernels: the packed GEMM on fc1's weights, and the KV-sized LUT decode.
  const af::PackedAdaptivFloatTensor& w1 = mlp.fc1().packed_weight();
  for (const std::int64_t rows : {8, 64}) {
    const af::Tensor& x = rows == 8 ? x8 : x64;
    const double us = median_us(rows == 8 ? 1000 : 300,
                                [&] { (void)af::matmul_packed(x, w1, be); });
    const std::string tag = rows == 8 ? "m8" : "m64";
    m["kernels.gemm_packed_us." + tag] = us;
    m["kernels.gemm_packed_gflops." + tag] =
        2.0 * static_cast<double>(rows * kIn * kHidden) / (us * 1e3);
  }

  af::TransformerBundle& tf = stack.transformer();
  const af::TransformerMT::KvRanges ranges = tf.model.dec_kv_ranges(0);
  const std::int64_t d = tf.cfg.d_model;
  af::KvQuantConfig quant{
      std::shared_ptr<const af::FormatCodec>(
          af::make_codec(af::FormatKind::kAdaptivFloat, 8, ranges.self_k)),
      std::shared_ptr<const af::FormatCodec>(
          af::make_codec(af::FormatKind::kAdaptivFloat, 8, ranges.self_v))};
  {
    constexpr std::int64_t kCodes = 256 * 64;
    std::vector<std::uint8_t> codes(kCodes);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next_below(256));
    std::vector<float> out(kCodes);
    const float* table = quant.k_codec->decode_lut(false).data();
    const double us = median_us(1000, [&] {
      be.unpack_decode(codes.data(), codes.size(), 8, 0, kCodes, table,
                       out.data());
    });
    m["kernels.unpack_decode_ns_per_code"] = us * 1e3 / kCodes;
  }

  // nn: one quantized KV lane holding 256 steps.
  {
    af::KvState kv;
    kv.init(1, 256, d, quant);
    for (int t = 0; t < 256; ++t) {
      kv.append(af::Tensor::randn({1, d}, rng, ranges.self_k / 3),
                af::Tensor::randn({1, d}, rng, ranges.self_v / 3));
    }
    m["nn.kv_rows_us.t256"] = median_us(1000, [&] { (void)kv.rows(0, be); });
  }

  // models: solo decode steps at 64 and 256 cached steps.
  const af::TokenSeq src = {af::TranslationTask::kFirstWord + 1,
                            af::TranslationTask::kFirstWord + 4,
                            af::TranslationTask::kFirstWord,
                            af::TranslationTask::kFirstWord + 2,
                            af::TranslationTask::kFirstWord + 7,
                            af::TranslationTask::kFirstWord + 3};
  {
    af::TransformerDecoder dq(tf.model, stack.decoder_options());
    m["nn.kv_bytes_per_token"] = static_cast<double>(dq.kv_bytes_per_step());
    m["models.decode_step_us.t64"] = decode_step_us(dq, src, 64, 8);
    m["models.decode_step_us.t256"] = decode_step_us(dq, src, 256, 4);
  }
  {
    af::TransformerDecoder::Options fp32 = stack.decoder_options();
    fp32.kv = af::KvCacheFormat{};
    af::TransformerDecoder df(tf.model, fp32);
    m["models.decode_step_us.fp32.t256"] = decode_step_us(df, src, 256, 4);
  }
  return m;
}

}  // namespace sb
