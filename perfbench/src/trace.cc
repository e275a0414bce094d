#include "trace.h"

#include <memory>

namespace perfbench {

using subcover::covering_check_stats;
using subcover::covering_index;
using subcover::schema;
using subcover::subscription;

namespace {

class traced_index final : public covering_index {
 public:
  traced_index(const schema& s, covering_trace& t)
      : covering_index(s), inner_(s), shadow_(s), t_(t) {}

  void insert(sub_id id, const subscription& s) override {
    mutate([&] { inner_.insert(id, s); });
    shadow([&] { shadow_.insert(id, s); });
  }
  void insert_batch(const std::vector<std::pair<sub_id, subscription>>& subs) override {
    mutate([&] { inner_.insert_batch(subs); });
    shadow([&] { shadow_.insert_batch(subs); });
  }
  bool erase(sub_id id) override {
    bool out = false;
    mutate([&] { out = inner_.erase(id); });
    shadow([&] { shadow_.erase(id); });
    return out;
  }
  std::size_t erase_batch(const std::vector<sub_id>& ids) override {
    std::size_t out = 0;
    mutate([&] { out = inner_.erase_batch(ids); });
    shadow([&] { shadow_.erase_batch(ids); });
    return out;
  }
  void maintain() override {
    mutate([&] { inner_.maintain(); });
  }

  [[nodiscard]] std::optional<sub_id> find_covering(const subscription& s, double epsilon,
                                                    covering_check_stats* stats) const override {
    covering_check_stats local;
    covering_check_stats* st = stats ? stats : &local;
    const std::uint64_t t0 = now_ns();
    const auto found = inner_.find_covering(s, epsilon, st);
    const std::uint64_t dt = now_ns() - t0;
    ++t_.checks;
    t_.check_ns += dt;
    t_.check_hist.add(dt);
    if (found) ++t_.hits;
    const auto& q = st->dominance;
    t_.cubes += q.cubes_enumerated;
    t_.runs_in_plan += q.runs_in_plan;
    t_.runs_probed += q.runs_probed;
    t_.probes_restarted += q.probes_restarted;
    t_.probes_resumed += q.probes_resumed;
    if (q.budget_exhausted) ++t_.budget_exhausted;
    shadow([&] {
      if (shadow_.find_covering(s, 0.0)) ++t_.shadow_hits;
    });
    return found;
  }

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t memory_footprint() const override {
    return inner_.memory_footprint();
  }

 private:
  template <class F>
  void mutate(F&& f) {
    const std::uint64_t t0 = now_ns();
    f();
    t_.mutate_ns += now_ns() - t0;
    ++t_.mutate_calls;
  }
  template <class F>
  void shadow(F&& f) const {
    const std::uint64_t t0 = now_ns();
    f();
    t_.shadow_ns += now_ns() - t0;
  }

  subcover::sfc_covering_index inner_;
  subcover::linear_covering_index shadow_;
  covering_trace& t_;
};

}  // namespace

void covering_trace::merge(const covering_trace& o) {
  checks += o.checks;
  hits += o.hits;
  shadow_hits += o.shadow_hits;
  check_ns += o.check_ns;
  mutate_calls += o.mutate_calls;
  mutate_ns += o.mutate_ns;
  shadow_ns += o.shadow_ns;
  cubes += o.cubes;
  runs_in_plan += o.runs_in_plan;
  runs_probed += o.runs_probed;
  probes_restarted += o.probes_restarted;
  probes_resumed += o.probes_resumed;
  budget_exhausted += o.budget_exhausted;
  check_hist.merge(o.check_hist);
}

void add_per_check_metrics(run_result& r, const covering_trace& t) {
  const auto per_check = [&](std::uint64_t v) { return ratio(static_cast<double>(v), t.checks); };
  r.add("covering.check_us_p50", t.check_hist.quantile_ms(0.50) * 1e3, "us");
  r.add("covering.check_us_p90", t.check_hist.quantile_ms(0.90) * 1e3, "us");
  r.add("covering.hit_rate", per_check(t.hits), "ratio");
  r.add("covering.detection_rate", ratio(static_cast<double>(t.hits), t.shadow_hits), "ratio");
  r.add("dominance.cubes_per_check", per_check(t.cubes), "cubes");
  r.add("dominance.runs_per_check", per_check(t.runs_in_plan), "runs");
  r.add("dominance.budget_exhausted_share", per_check(t.budget_exhausted), "ratio");
  r.add("dominance.ns_per_cube", ratio(static_cast<double>(t.check_ns), t.cubes), "ns");
  r.add("sfcarray.runs_probed_per_check", per_check(t.runs_probed), "runs");
  r.add("sfcarray.probes_restarted_per_check", per_check(t.probes_restarted), "probes");
  r.add("sfcarray.probes_resumed_per_check", per_check(t.probes_resumed), "probes");
}

subcover::covering_index_factory traced_factory(covering_trace& trace) {
  return [&trace](const schema& s) -> std::unique_ptr<covering_index> {
    return std::make_unique<traced_index>(s, trace);
  };
}

}  // namespace perfbench
