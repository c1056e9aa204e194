#include "core/scoring.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace scion::ctrl {

namespace {

const std::array<double, kLogCountTableSize> kLogCount = [] {
  std::array<double, kLogCountTableSize> table{};
  for (int i = 1; i < kLogCountTableSize; ++i) {
    table[static_cast<std::size_t>(i)] = std::log(static_cast<double>(i));
  }
  return table;
}();

}  // namespace

double log_count(int count) {
  return count < kLogCountTableSize
             ? kLogCount[static_cast<std::size_t>(count)]
             : std::log(static_cast<double>(count));
}

void LinkHistoryTable::add_path(std::span<const topo::LinkIndex> links) {
  for (topo::LinkIndex l : links) {
    if (l >= counters_.size()) {
      SCION_CHECK(l != topo::kInvalidLinkIndex,
                  "a sent path's link must be a valid link index");
      counters_.resize(static_cast<std::size_t>(l) + 1, 0);
    }
    if (counters_[l]++ == 0) ++distinct_;
  }
}

void LinkHistoryTable::remove_path(std::span<const topo::LinkIndex> links) {
  for (topo::LinkIndex l : links) {
    if (l >= counters_.size() || counters_[l] == 0) continue;
    if (--counters_[l] == 0) --distinct_;
  }
}

double LinkHistoryTable::geometric_mean(
    std::span<const topo::LinkIndex> links) const {
  if (links.empty()) return 0.0;
  double log_sum = 0.0;
  for (topo::LinkIndex l : links) {
    const int c = counter(l);
    if (c == 0) return 0.0;  // a single new link makes the path fully fresh
    log_sum += log_count(c);
  }
  return std::exp(log_sum / static_cast<double>(links.size()));
}

double diversity_score(const LinkHistoryTable& history,
                       std::span<const topo::LinkIndex> path_links,
                       const DiversityParams& params) {
  SCION_CHECK(params.max_geometric_mean > 0.0,
              "diversity normalization needs a positive maximum");
  return diversity_of_mean(history.geometric_mean(path_links), params);
}

double score_fresh(double diversity, Duration age, Duration lifetime,
                   const DiversityParams& params) {
  SCION_CHECK(lifetime > Duration::zero(), "PCB lifetime must be positive");
  diversity = std::clamp(diversity, 0.0, 1.0);
  // Zero diversity means the path is at/beyond the acceptable redundancy;
  // it must never be sent (std::pow(0, 0) == 1 would say otherwise for a
  // brand-new PCB).
  if (diversity == 0.0) return 0.0;
  const double ratio =
      std::clamp(age / lifetime, 0.0, 1.0);
  const double f = params.alpha * ratio;  // Eq. 2
  return std::pow(diversity, f);          // Eq. 1, not-previously-sent branch
}

double score_previously_sent(double stored_diversity, Duration sent_remaining,
                             Duration current_remaining,
                             const DiversityParams& params) {
  stored_diversity = std::clamp(stored_diversity, 0.0, 1.0);
  if (stored_diversity == 0.0) return 0.0;
  // A sent instance that already expired is handled by the caller (the
  // record is purged); clamp defensively anyway.
  const double sent_rem = std::max(0.0, sent_remaining.as_seconds());
  const double cur_rem = std::max(1e-9, current_remaining.as_seconds());
  const double g = std::pow(params.beta * sent_rem / cur_rem, params.gamma);  // Eq. 3
  return std::pow(stored_diversity, g);  // Eq. 1, previously-sent branch
}

double latency_factor(std::uint64_t path_latency_us,
                      const DiversityParams& params) {
  if (params.latency_weight <= 0.0) return 1.0;
  const double latency_ms = static_cast<double>(path_latency_us) / 1000.0;
  return std::pow(2.0, -params.latency_weight * latency_ms / 50.0);
}

}  // namespace scion::ctrl
