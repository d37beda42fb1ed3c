#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common.hpp"

namespace sb {

namespace {

std::atomic<int> next_tid{0};

int thread_ordinal() {
  thread_local int tid = next_tid.fetch_add(1);
  return tid;
}

}  // namespace

std::uint64_t Tracer::record(const char* name, double t0, double t1,
                             std::uint64_t req, std::uint64_t parent,
                             std::int64_t arg) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  spans_[i] = Span{name, req, parent, t0, t1, arg, thread_ordinal()};
  return i + 1;
}

std::size_t Tracer::size() const {
  return std::min(next_.load(), spans_.size());
}

void Tracer::link(std::uint64_t parent, std::uint64_t child) {
  if (parent == 0 || child == 0) return;
  links_.emplace_back(parent, child);
  if (at(child).req == 0) at(child).req = at(parent).req;
}

std::vector<std::vector<std::uint64_t>> Tracer::parents() const {
  const std::size_t n = size();
  std::vector<std::vector<std::uint64_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[i].parent != 0) out[i].push_back(spans_[i].parent);
  }
  for (const auto& [parent, child] : links_) out[child - 1].push_back(parent);
  return out;
}

std::vector<double> Tracer::self_times() const {
  const std::size_t n = size();
  std::vector<std::vector<std::pair<double, double>>> kids(n);
  const std::vector<std::vector<std::uint64_t>> up = parents();
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint64_t p : up[i]) {
      kids[p - 1].emplace_back(spans_[i].t0, spans_[i].t1);
    }
  }
  std::vector<double> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = s.t0;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, lo);
      const double to = std::min(b, s.t1);
      if (to > from) {
        covered += to - from;
        lo = to;
      }
    }
    self[i] = (s.t1 - s.t0) - covered;
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = size();
  const std::vector<std::vector<std::uint64_t>> up = parents();
  double base = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || spans_[i].t0 < base) base = spans_[i].t0;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::string parents;
    for (const std::uint64_t p : up[i]) {
      if (!parents.empty()) parents += ", ";
      parents += std::to_string(p);
    }
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"req\": %llu, \"parents\": [%s], \"arg\": %lld}}%s\n",
                 s.name, s.tid, s.t0 - base, s.t1 - s.t0, i + 1,
                 static_cast<unsigned long long>(s.req), parents.c_str(),
                 static_cast<long long>(s.arg), i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::print_layer_table() const {
  struct Row {
    std::vector<double> dur;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < size(); ++i) {
    Row& r = rows[spans_[i].name];
    r.dur.push_back(spans_[i].t1 - spans_[i].t0);
    r.self += self[i];
  }
  std::printf("%-28s %9s %12s %12s %11s %11s\n", "span", "count", "total_ms",
              "self_ms", "p50_us", "p99_us");
  for (const auto& [name, r] : rows) {
    double total = 0.0;
    for (double d : r.dur) total += d;
    std::printf("%-28s %9zu %12.3f %12.3f %11.2f %11.2f\n", name.c_str(),
                r.dur.size(), total / 1e3, r.self / 1e3,
                percentile(r.dur, 0.5), percentile(r.dur, 0.99));
  }
}

}  // namespace sb
