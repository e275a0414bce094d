#include "broker/broker.h"

#include <exception>
#include <stdexcept>

#include "broker/worker_pool.h"
#include "util/check.h"

namespace subcover {

broker::broker(int id, const schema& s, const std::vector<int>& neighbor_links,
               const covering_index_factory& factory, broker_options options)
    : id_(id), schema_(s), links_(neighbor_links), options_(options), factory_(factory) {
  SUBCOVER_CHECK(static_cast<bool>(factory_), "broker: covering index factory required");
  for (const int link : links_) {
    link_shard shard;
    shard.index = factory_(schema_);
    shards_.emplace(link, std::move(shard));
  }
}

broker::broker(int id, const schema& s, const std::vector<int>& neighbor_links,
               const covering_index_factory& factory, broker_options options,
               const std::map<int, std::vector<std::pair<sub_id, subscription>>>&
                   initial_forwarded)
    : broker(id, s, neighbor_links, factory, options) {
  for (const auto& [link, subs] : initial_forwarded) bootstrap_forwarded(link, subs);
}

void broker::bootstrap_forwarded(int link,
                                 const std::vector<std::pair<sub_id, subscription>>& subs) {
  const auto it = shards_.find(link);
  if (it == shards_.end())
    throw std::invalid_argument("broker: bootstrap for unknown link");
  link_shard& shard = it->second;
  // All-or-nothing: a duplicate id must not leave the covering index
  // disagreeing with the forwarded set (that would silently swallow later
  // forwards), so validate before mutating either structure.
  std::set<sub_id> batch_ids;
  for (const auto& [id, s] : subs) {
    (void)s;
    if (shard.forwarded.count(id) > 0 || !batch_ids.insert(id).second)
      throw std::invalid_argument("broker: bootstrap duplicates a forwarded id");
  }
  shard.index->insert_batch(subs);
  for (const auto& [id, s] : subs) shard.forwarded.emplace(id, s);
}

bool broker::covered_on_shard(const link_shard& shard, const subscription& s,
                              network_metrics& metrics) const {
  const auto hit = shard.index->find_covering(s, options_.epsilon, &shard.scratch);
  ++metrics.covering_checks;
  metrics.covering_check_ns += shard.scratch.elapsed_ns;
  metrics.covering_runs_probed += shard.scratch.dominance.runs_probed;
  metrics.covering_probes_restarted += shard.scratch.dominance.probes_restarted;
  metrics.covering_probes_resumed += shard.scratch.dominance.probes_resumed;
  metrics.covering_tier_cold_probes += shard.scratch.dominance.tier_cold_probes;
  metrics.covering_tier_summary_answers += shard.scratch.dominance.tier_summary_answers;
  metrics.covering_tier_blocks_decoded += shard.scratch.dominance.tier_blocks_decoded;
  metrics.covering_tier_cold_hits += shard.scratch.dominance.tier_cold_hits;
  metrics.covering_maint_tombstones += shard.scratch.dominance.maint_tombstones_added;
  metrics.covering_maint_purged += shard.scratch.dominance.maint_tombstones_purged;
  metrics.covering_maint_compactions += shard.scratch.dominance.maint_compactions;
  if (hit.has_value()) ++metrics.covering_hits;
  return hit.has_value();
}

bool broker::subscribe_on_shard(link_shard& shard, sub_id id, const subscription& s,
                                network_metrics& metrics) {
  if (options_.use_covering && covered_on_shard(shard, s, metrics)) return false;
  shard.index->insert(id, s);
  shard.forwarded.emplace(id, s);
  return true;
}

broker::shard_unsubscribe_result broker::unsubscribe_on_shard(link_shard& shard, int link,
                                                              sub_id id,
                                                              network_metrics& metrics) {
  shard_unsubscribe_result result;
  const auto it = shard.forwarded.find(id);
  if (it == shard.forwarded.end()) return result;  // was suppressed on this link
  // Withdraw the subscription downstream.
  shard.index->erase(id);
  shard.forwarded.erase(it);
  result.forward = true;
  // Subscriptions whose forward was suppressed because of (possibly) this
  // one may now be uncovered; re-check every active, unforwarded
  // subscription and re-forward the ones no longer covered. Reads only the
  // routing table (shared, unmodified during the per-shard fan-out) and
  // this shard.
  for (const auto& [other_id, other_sub] : table_.subs_not_from(link)) {
    if (other_id == id) continue;
    if (shard.forwarded.count(other_id) > 0) continue;  // already forwarded
    if (options_.use_covering && covered_on_shard(shard, other_sub, metrics)) continue;
    shard.index->insert(other_id, other_sub);
    shard.forwarded.emplace(other_id, other_sub);
    result.reforwards.push_back({other_id, other_sub});
  }
  return result;
}

broker::subscribe_action broker::handle_subscribe(int from_link, sub_id id,
                                                  const subscription& s,
                                                  network_metrics& metrics) {
  table_.add(from_link, id, s);
  subscribe_action action;
  // Attempt every shard even if one throws — the same attempt-every-index
  // contract as worker_pool::run_batch, so the serial and parallel handlers
  // leave identical shard state on failure. First error rethrown after.
  std::exception_ptr first_error;
  for (const int link : links_) {
    if (link == from_link) continue;
    try {
      if (subscribe_on_shard(shards_.at(link), id, s, metrics))
        action.forward_links.push_back(link);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return action;
}

void broker::collect_targets(int from_link) {
  targets_.clear();
  target_links_.clear();
  for (const int link : links_) {
    if (link == from_link) continue;
    targets_.push_back(&shards_.at(link));
    target_links_.push_back(link);
  }
  delta_scratch_.assign(targets_.size(), network_metrics{});
}

broker::subscribe_action broker::handle_subscribe_parallel(int from_link, sub_id id,
                                                           const subscription& s,
                                                           network_metrics& metrics,
                                                           worker_pool& pool) {
  table_.add(from_link, id, s);
  // Shard fan-out: job i owns exactly targets_[i]'s shard plus slot i of
  // the result scratch; the merge below runs on this thread in link order,
  // so the action and the metric totals match the serial handler exactly.
  collect_targets(from_link);
  forward_scratch_.assign(targets_.size(), 0);
  // run_batch attempts every index even when one throws; fold the per-shard
  // metric deltas BEFORE rethrowing so the totals match the serial handler's
  // accumulate-as-you-go exactly on the failure path too.
  std::exception_ptr error;
  try {
    pool.run_batch(targets_.size(), [&](std::size_t i) {
      forward_scratch_[i] = subscribe_on_shard(*targets_[i], id, s, delta_scratch_[i]) ? 1 : 0;
    });
  } catch (...) {
    error = std::current_exception();
  }
  subscribe_action action;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    metrics += delta_scratch_[i];
    if (forward_scratch_[i] != 0) action.forward_links.push_back(target_links_[i]);
  }
  if (error) std::rethrow_exception(error);
  return action;
}

broker::unsubscribe_action broker::handle_unsubscribe(int from_link, sub_id id,
                                                      network_metrics& metrics) {
  const bool removed = table_.remove(from_link, id);
  SUBCOVER_CHECK(removed, "broker: unsubscribe for unknown subscription");
  unsubscribe_action action;
  std::exception_ptr first_error;
  for (const int link : links_) {
    if (link == from_link) continue;
    try {
      auto result = unsubscribe_on_shard(shards_.at(link), link, id, metrics);
      if (!result.forward) continue;
      action.forward_links.push_back(link);
      for (auto& rf : result.reforwards) action.reforwards.push_back({link, std::move(rf)});
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return action;
}

broker::unsubscribe_batch_action broker::handle_unsubscribe_batch(
    int from_link, const std::vector<sub_id>& ids, network_metrics& metrics) {
  for (const sub_id id : ids) {
    const bool removed = table_.remove(from_link, id);
    SUBCOVER_CHECK(removed, "broker: unsubscribe for unknown subscription");
  }
  unsubscribe_batch_action action;
  std::exception_ptr first_error;
  for (const int link : links_) {
    if (link == from_link) continue;
    try {
      link_shard& shard = shards_.at(link);
      // Withdraw every forwarded id of the batch in one covering-index
      // erase_batch — the bulk path that pays the dominance array's
      // tombstone/compaction machinery once.
      std::vector<sub_id> withdrawn;
      for (const sub_id id : ids)
        if (shard.forwarded.count(id) > 0) withdrawn.push_back(id);
      if (withdrawn.empty()) continue;  // all suppressed on this link
      const std::size_t erased = shard.index->erase_batch(withdrawn);
      SUBCOVER_CHECK(erased == withdrawn.size(), "broker: covering index out of sync");
      for (const sub_id id : withdrawn) shard.forwarded.erase(id);
      // One re-forward sweep against the post-batch state (the table no
      // longer holds any batch id, so no per-id skip is needed).
      for (const auto& [other_id, other_sub] : table_.subs_not_from(link)) {
        if (shard.forwarded.count(other_id) > 0) continue;  // already forwarded
        if (options_.use_covering && covered_on_shard(shard, other_sub, metrics)) continue;
        shard.index->insert(other_id, other_sub);
        shard.forwarded.emplace(other_id, other_sub);
        action.reforwards.push_back({link, {other_id, other_sub}});
      }
      action.forward_links.push_back({link, std::move(withdrawn)});
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return action;
}

broker::unsubscribe_action broker::handle_unsubscribe_parallel(int from_link, sub_id id,
                                                               network_metrics& metrics,
                                                               worker_pool& pool) {
  const bool removed = table_.remove(from_link, id);
  SUBCOVER_CHECK(removed, "broker: unsubscribe for unknown subscription");
  collect_targets(from_link);
  unsub_scratch_.assign(targets_.size(), shard_unsubscribe_result{});
  std::exception_ptr error;
  try {
    pool.run_batch(targets_.size(), [&](std::size_t i) {
      unsub_scratch_[i] =
          unsubscribe_on_shard(*targets_[i], target_links_[i], id, delta_scratch_[i]);
    });
  } catch (...) {
    error = std::current_exception();
  }
  unsubscribe_action action;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    metrics += delta_scratch_[i];
    if (!unsub_scratch_[i].forward) continue;
    action.forward_links.push_back(target_links_[i]);
    for (auto& rf : unsub_scratch_[i].reforwards)
      action.reforwards.push_back({target_links_[i], std::move(rf)});
  }
  if (error) std::rethrow_exception(error);
  return action;
}

broker::event_action broker::handle_event(int from_link, const event& e) const {
  event_action action;
  action.forward_links = table_.matching_links(e, from_link);
  // Local clients always receive matching events, even when the event came
  // from the local link itself (a publisher can also be a subscriber);
  // matching_links above excludes the local link from forwards.
  action.local_deliveries = table_.matching_subs(kLocalLink, e);
  // Do not forward back over the local pseudo-link.
  std::erase(action.forward_links, kLocalLink);
  return action;
}

broker_snapshot broker::snapshot() const {
  broker_snapshot snap;
  snap.routing = table_.snapshot();
  for (const auto& [link, shard] : shards_) {
    auto& subs = snap.forwarded[link];
    subs.reserve(shard.forwarded.size());
    for (const auto& [id, s] : shard.forwarded) subs.emplace_back(id, s);
  }
  return snap;
}

void broker::checkpoint(broker_wal& wal) const { wal.write_snapshot(snapshot()); }

void broker::apply_replay(const wal_record& r) {
  switch (r.k) {
    case wal_record::kind::subscribe:
      table_.add(r.from, r.id, r.body);
      for (const int link : r.forwarded_links) {
        link_shard& shard = shards_.at(link);
        shard.index->insert(r.id, r.body);
        shard.forwarded.emplace(r.id, r.body);
      }
      break;
    case wal_record::kind::unsubscribe: {
      const bool removed = table_.remove(r.from, r.id);
      SUBCOVER_CHECK(removed, "broker: replayed unsubscribe for unknown subscription");
      for (const int link : r.withdrawn_links) {
        link_shard& shard = shards_.at(link);
        shard.index->erase(r.id);
        shard.forwarded.erase(r.id);
      }
      for (const auto& [link, sub_pair] : r.reforwards) {
        link_shard& shard = shards_.at(link);
        shard.index->insert(sub_pair.first, sub_pair.second);
        shard.forwarded.emplace(sub_pair.first, sub_pair.second);
      }
      break;
    }
    case wal_record::kind::event_receipt:
      break;  // channel-position bookkeeping only; no routing state moves
  }
}

broker broker::recover(int id, const schema& s, const std::vector<int>& neighbor_links,
                       const covering_index_factory& factory, broker_options options,
                       const broker_wal::recovery& rec) {
  broker b(id, s, neighbor_links, factory, options, rec.snapshot.forwarded);
  for (const auto& [link, subs] : rec.snapshot.routing)
    for (const auto& [sid, body] : subs) b.table_.add(link, sid, body);
  for (const auto& r : rec.records) b.apply_replay(r);
  return b;
}

void broker::restore(const broker_wal::recovery& rec) {
  *this = recover(id_, schema_, links_, factory_, options_, rec);
}

std::size_t broker::forwarded_to(int link) const {
  const auto it = shards_.find(link);
  return it == shards_.end() ? 0 : it->second.forwarded.size();
}

std::vector<sub_id> broker::forwarded_ids(int link) const {
  std::vector<sub_id> out;
  const auto it = shards_.find(link);
  if (it == shards_.end()) return out;
  out.reserve(it->second.forwarded.size());
  for (const auto& [id, s] : it->second.forwarded) {
    (void)s;
    out.push_back(id);
  }
  return out;
}

std::size_t broker::memory_footprint() const {
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  std::size_t total = sizeof(*this) + table_.memory_footprint();
  for (const auto& [link, shard] : shards_) {
    (void)link;
    total += kNodeOverhead + sizeof(std::pair<const int, link_shard>);
    total += shard.index->memory_footprint();
    for (const auto& [id, s] : shard.forwarded) {
      (void)id;
      total += kNodeOverhead + sizeof(std::pair<const sub_id, subscription>) +
               static_cast<std::size_t>(s.attribute_count()) * sizeof(attr_range);
    }
  }
  return total;
}

}  // namespace subcover
