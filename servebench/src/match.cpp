#include "match.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "stack.hpp"

namespace sb {

namespace {

bool named(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

struct Instance {
  std::uint64_t build = 0, prefill = 0;
  std::vector<std::uint64_t> steps;
  bool taken = false;
};

}  // namespace

LinkedSpans link_spans(Tracer& tr, const Load& load) {
  LinkedSpans out;
  std::vector<std::uint64_t> forwards;
  std::map<std::int64_t, Instance> instances;
  for (std::uint64_t id = 1; id <= tr.size(); ++id) {
    const Span& s = tr.at(id);
    if (named(s, "runtime.forward")) {
      forwards.push_back(id);
    } else if (named(s, "runtime.decoder_build")) {
      instances[s.arg].build = id;
    } else if (named(s, "runtime.prefill")) {
      instances[s.arg].prefill = id;
    } else if (named(s, "runtime.step")) {
      instances[s.arg].steps.push_back(id);
    }
  }
  std::sort(forwards.begin(), forwards.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return tr.at(a).t0 < tr.at(b).t0;
            });
  auto dur = [&](std::uint64_t id) { return tr.at(id).t1 - tr.at(id).t0; };

  // One-shot requests -> batch forwards.
  std::set<std::uint64_t> used;
  for (const OneShotRec& r : load.oneshots) {
    if (!r.ok || r.exec_span == 0) continue;
    const double lo = r.t0 + r.queue_us;
    const double hi = r.t1 + r.total_us + 1.0;
    auto it = std::lower_bound(forwards.begin(), forwards.end(), lo,
                               [&](std::uint64_t id, double t) {
                                 return tr.at(id).t0 < t;
                               });
    std::uint64_t best = 0;
    for (; it != forwards.end() && tr.at(*it).t0 <= hi; ++it) {
      const Span& f = tr.at(*it);
      if (f.t1 <= hi && f.arg == r.batch * kRowsPerRequest &&
          (best == 0 || f.t1 > tr.at(best).t1)) {
        best = *it;
      }
    }
    if (best == 0) {
      ++out.unmatched;
      continue;
    }
    tr.link(r.exec_span, best);
    if (used.insert(best).second) out.forward_us.push_back(dur(best));
    out.serve_self_us.push_back(r.total_us - r.queue_us - dur(best));
  }

  // Decode streams -> decoder instances.
  auto window = [&](const OpRec& op) {
    return std::pair<double, double>{op.t0 + op.queue_us,
                                     op.t1 + op.total_us + 1.0};
  };
  auto inside = [&](std::uint64_t id, std::pair<double, double> w) {
    return id != 0 && tr.at(id).t0 >= w.first && tr.at(id).t1 <= w.second;
  };
  for (const StreamRec& s : load.streams) {
    const OpRec& open = load.ops[s.open_op];
    if (!open.ok || open.exec_span == 0) continue;
    const auto w = window(open);
    Instance* pick = nullptr;
    for (auto& [key, inst] : instances) {
      if (inst.taken || !inside(inst.build, w) || !inside(inst.prefill, w)) {
        continue;
      }
      const bool first_step_fits =
          s.step_ops.empty() || inst.steps.empty() ||
          inside(inst.steps.front(), window(load.ops[s.step_ops.front()]));
      if (first_step_fits) {
        pick = &inst;
        break;
      }
    }
    if (pick == nullptr) {
      ++out.unmatched;
      continue;
    }
    pick->taken = true;
    tr.link(open.exec_span, pick->build);
    tr.link(open.exec_span, pick->prefill);
    out.build_us.push_back(dur(pick->build));
    out.prefill_us.push_back(dur(pick->prefill));
    const std::size_t n = std::min(pick->steps.size(), s.step_ops.size());
    for (std::size_t k = 0; k < n; ++k) {
      const OpRec& op = load.ops[s.step_ops[k]];
      const std::uint64_t step = pick->steps[k];
      tr.link(op.exec_span, step);
      out.step_us.push_back(dur(step));
      out.serve_self_us.push_back(op.total_us - op.queue_us - dur(step));
    }
    out.unmatched += s.step_ops.size() - n;
  }
  return out;
}

}  // namespace sb
