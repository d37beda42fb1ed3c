#include "traffic.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "src/util/hash.hpp"

#include "common.hpp"
#include "stack.hpp"

namespace sb {

using af::DecodeOp;
using af::TranslationTask;

namespace {

constexpr std::uint32_t kMlpPool = 64;
constexpr std::uint32_t kLongPool = 96;
constexpr std::uint32_t kShortPool = 256;
constexpr std::size_t kRecordCapacity = std::size_t{1} << 17;

bool ready(std::future<af::Response>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

Inputs::Inputs(std::uint64_t seed, const TranslationTask& task) {
  for (std::uint32_t i = 0; i < kMlpPool; ++i) {
    af::Pcg32 rng(seed, 100 + i);
    mlp.push_back(af::Tensor::randn({kRowsPerRequest, kIn}, rng));
  }
  af::Pcg32 lr(seed, 21), sr(seed, 22);
  for (std::uint32_t i = 0; i < kLongPool; ++i) {
    long_src.push_back(task.sample(lr).source);
  }
  for (std::uint32_t i = 0; i < kShortPool; ++i) {
    short_src.push_back(task.sample(sr).source);
  }
}

Load::Load(af::InferenceServer& server, const Inputs& inputs,
           std::uint64_t seed, Tracer* tracer)
    : first_output(inputs.mlp.size()),
      server_(server),
      inputs_(inputs),
      tracer_(tracer),
      arrivals_(seed, 11),
      picks_(seed, 12) {
  // Allocated and touched up front: records growing mid-run would make the
  // peak resident size depend on how many requests a run completes.
  oneshots.resize(kRecordCapacity);
  oneshots.clear();
  ops.resize(kRecordCapacity);
  ops.clear();
  streams.reserve(kRecordCapacity / 16);
}

Counts& Load::counts(DecodeOp op) {
  switch (op) {
    case DecodeOp::kOpen: return open_n;
    case DecodeOp::kStep: return step_n;
    case DecodeOp::kClose: return close_n;
  }
  return step_n;
}

void Load::send_oneshot(double sched, bool drain) {
  OneShotRec rec;
  rec.pool = picks_.next_below(static_cast<std::uint32_t>(inputs_.mlp.size()));
  rec.sched = sched;
  rec.drain = drain;
  af::Request req{kMlpTenant, inputs_.mlp[rec.pool], {}};
  ++oneshot_n.attempted;
  rec.t0 = now_us();
  try {
    std::future<af::Response> fut = server_.submit(std::move(req));
    rec.t1 = now_us();
    oneshots.push_back(rec);
    pending_.emplace_back(oneshots.size() - 1, std::move(fut));
  } catch (const af::FaultError&) {
    rec.t1 = now_us();
    ++oneshot_n.failed;
    oneshots.push_back(rec);
  }
}

void Load::harvest(std::size_t idx, std::future<af::Response>& fut) {
  af::Response r = fut.get();
  OneShotRec& rec = oneshots[idx];
  rec.ok = r.ok;
  rec.batch = r.batch_size;
  rec.queue_us = static_cast<double>(r.queue_us.count());
  rec.total_us = static_cast<double>(r.total_us.count());
  rec.coalesce_us = static_cast<double>(r.coalesce_us.count());
  if (!r.ok) {
    ++oneshot_n.failed;
    return;
  }
  rec.digest = af::fnv1a64(r.output.data(), static_cast<std::size_t>(
                                                r.output.numel()) *
                                                sizeof(float));
  if (!first_output[rec.pool]) first_output[rec.pool] = std::move(r.output);
  if (tracer_ != nullptr) {
    const std::uint64_t id = idx + 1;
    const double exec0 = rec.t1 + rec.queue_us;
    const double done = rec.t1 + rec.total_us;
    const std::uint64_t top =
        tracer_->record("client.request", rec.sched, done, id);
    tracer_->record("serve.submit", rec.t0, rec.t1, id, top);
    tracer_->record("serve.queue", rec.t1, exec0, id, top);
    rec.exec_span = tracer_->record("serve.exec", exec0, done, id, top);
  }
}

bool Load::submit_op(Client& c, DecodeOp op) {
  af::DecodeRequest req;
  req.tenant = kDecodeTenant;
  req.stream = std::to_string(c.stream);
  req.op = op;
  const StreamRec& s = streams[c.stream];
  if (op == DecodeOp::kOpen) {
    req.src = s.long_stream ? inputs_.long_src[s.pool]
                            : inputs_.short_src[s.pool];
  } else if (op == DecodeOp::kStep) {
    req.last_token = c.last;
  }
  OpRec rec;
  rec.op = op;
  rec.stream = c.stream;
  ++counts(op).attempted;
  rec.t0 = now_us();
  try {
    c.fut = server_.submit_decode(std::move(req));
  } catch (const af::FaultError&) {
    rec.t1 = rec.done = now_us();
    ++counts(op).failed;
    ops.push_back(rec);
    return false;
  }
  rec.t1 = now_us();
  ops.push_back(rec);
  c.op = static_cast<std::uint32_t>(ops.size() - 1);
  return true;
}

void Load::start_stream(Client& c, bool long_stream) {
  StreamRec s;
  s.long_stream = long_stream;
  // Streams take the seeded sources in turn, so every source of the pool
  // is decoded about equally often however many streams a run completes.
  std::uint32_t& next = long_stream ? next_long_ : next_short_;
  const auto pool = static_cast<std::uint32_t>(
      long_stream ? inputs_.long_src.size() : inputs_.short_src.size());
  s.pool = next++ % pool;
  streams.push_back(std::move(s));
  c.stream = static_cast<std::uint32_t>(streams.size() - 1);
  if (submit_op(c, DecodeOp::kOpen)) {
    streams[c.stream].open_op = c.op;
    c.state = Client::kOpening;
  } else {
    c.state = Client::kIdle;
  }
}

void Load::on_response(Client& c, bool long_stream) {
  af::Response r = c.fut.get();
  OpRec& rec = ops[c.op];
  rec.done = now_us();
  rec.ok = r.ok;
  rec.queue_us = static_cast<double>(r.queue_us.count());
  rec.total_us = static_cast<double>(r.total_us.count());
  StreamRec& s = streams[c.stream];
  if (!r.ok) ++counts(rec.op).failed;
  if (tracer_ != nullptr) {
    const std::uint64_t id = (std::uint64_t{1} << 40) + c.op;
    const double exec0 = rec.t1 + rec.queue_us;
    const double done = rec.t1 + rec.total_us;
    const std::uint64_t top =
        tracer_->record("client.request", rec.t0, rec.done, id);
    tracer_->record("serve.submit", rec.t0, rec.t1, id, top);
    tracer_->record("serve.queue", rec.t1, exec0, id, top);
    rec.exec_span = tracer_->record("serve.exec", exec0, done, id, top);
  }

  switch (c.state) {
    case Client::kOpening:
      if (!r.ok) {
        c.state = Client::kIdle;
        return;
      }
      c.last = r.token;
      c.state = Client::kStepping;
      break;
    case Client::kStepping: {
      if (!r.ok) {
        c.state = submit_op(c, DecodeOp::kClose) ? Client::kClosing
                                                 : Client::kIdle;
        return;
      }
      ++tokens;
      s.tokens.push_back(r.token);
      s.step_ops.push_back(c.op);
      c.last = r.token;
      const bool done =
          long_stream
              ? static_cast<int>(s.tokens.size()) >= kLongSteps
              : (r.token == TranslationTask::kEos ||
                 static_cast<int>(s.tokens.size()) >= kShortCap);
      if (done) {
        s.complete = true;
        c.state = submit_op(c, DecodeOp::kClose) ? Client::kClosing
                                                 : Client::kIdle;
        return;
      }
      break;
    }
    case Client::kClosing:
      if (!r.ok) s.complete = false;
      c.state = Client::kIdle;
      break;
    default:
      return;
  }
  if (c.state == Client::kStepping &&
      !submit_op(c, DecodeOp::kStep)) {
    s.complete = false;
    c.state = Client::kIdle;
  }
}

void Load::run(const PhaseSpec& phase) {
  const double start = now_us();
  const double end = start + phase.seconds * 1e6;

  if (phase.drain) {
    int rounds = 0;
    while (rounds < kMinDrainRounds || now_us() < end) {
      const double r0 = now_us();
      for (int i = 0; i < kDrainRequests; ++i) send_oneshot(now_us(), true);
      while (!pending_.empty()) {
        harvest(pending_.front().first, pending_.front().second);
        pending_.pop_front();
      }
      drain_rps.push_back(kDrainRequests / ((now_us() - r0) / 1e6));
      ++rounds;
    }
    return;
  }

  std::vector<Client> clients(static_cast<std::size_t>(phase.clients));
  for (Client& c : clients) start_stream(c, phase.long_streams);

  double next = start;
  int burst_left = 0;
  auto draw_gap = [&] {
    const double u = std::max(arrivals_.next_double(), 1e-12);
    next += -std::log(u) / phase.rate * 1e6;
    if (arrivals_.next_double() < phase.burst_prob) {
      burst_left = phase.burst_size;
    }
  };
  if (phase.rate > 0.0) draw_gap();

  double last_token_time = start;
  for (;;) {
    const double t = now_us();
    bool busy = false;
    if (phase.rate > 0.0 && next < end && t >= next) {
      send_oneshot(next, false);
      if (burst_left > 0) {
        --burst_left;
      } else {
        draw_gap();
      }
      busy = true;
    }
    bool clients_done = true;
    for (Client& c : clients) {
      if (c.state == Client::kIdle) {
        if (now_us() < end) {
          start_stream(c, phase.long_streams);
        } else {
          c.state = Client::kDone;
        }
      }
      if (c.state == Client::kDone) continue;
      clients_done = false;
      if (c.fut.valid() && ready(c.fut)) {
        const bool was_step = c.state == Client::kStepping;
        const std::uint32_t op = c.op;
        on_response(c, phase.long_streams);
        if (was_step) last_token_time = ops[op].done;
        busy = true;
      }
    }
    while (!pending_.empty() && ready(pending_.front().second)) {
      harvest(pending_.front().first, pending_.front().second);
      pending_.pop_front();
    }
    if (!busy && t >= end && clients_done &&
        (phase.rate <= 0.0 || next >= end)) {
      break;
    }
    if (!busy) std::this_thread::yield();
  }
  while (!pending_.empty()) {
    harvest(pending_.front().first, pending_.front().second);
    pending_.pop_front();
  }
  if (phase.clients > 0) decode_seconds += (last_token_time - start) / 1e6;
}

}  // namespace sb
