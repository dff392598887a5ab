#include "profile/stats.hpp"

#include <algorithm>
#include <cmath>

namespace synapse::profile {

double t_critical_99(size_t n) {
  // Two-sided 99% critical values of Student's t for dof = n-1.
  static const double table[] = {
      0,      63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355,
      3.250,  3.169,  3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898,
      2.878,  2.861,  2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
      2.771,  2.763,  2.756, 2.750};
  if (n < 2) return 0.0;
  const size_t dof = n - 1;
  if (dof < sizeof(table) / sizeof(table[0])) return table[dof];
  return 2.576;
}

MetricStats compute_stats(const std::vector<double>& values) {
  MetricStats s;
  s.n = values.size();
  if (values.empty()) return s;

  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());

  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);

  if (s.n >= 2) {
    double sq = 0.0;
    for (const double v : values) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
    s.ci99_half =
        t_critical_99(s.n) * s.stddev / std::sqrt(static_cast<double>(s.n));
  }
  return s;
}

namespace {

/// Metric name -> stats of its totals across `profiles`; `get` maps an
/// element to its Profile.
template <typename Profiles, typename Get>
std::map<std::string, MetricStats> aggregate(const Profiles& profiles,
                                             Get get) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& element : profiles) {
    for (const auto& [metric, value] : get(element).totals) {
      columns[metric].push_back(value);
    }
  }
  std::map<std::string, MetricStats> out;
  for (const auto& [metric, values] : columns) {
    out[metric] = compute_stats(values);
  }
  return out;
}

}  // namespace

std::map<std::string, MetricStats> aggregate_totals(
    const std::vector<Profile>& profiles) {
  return aggregate(profiles, [](const Profile& p) -> const Profile& { return p; });
}

std::map<std::string, MetricStats> aggregate_totals(
    const std::vector<std::shared_ptr<const Profile>>& profiles) {
  return aggregate(profiles,
                   [](const auto& p) -> const Profile& { return *p; });
}

double relative_diff(double a, double b) {
  if (b == 0.0) return a == 0.0 ? 0.0 : 1.0;
  return std::abs(a - b) / std::abs(b);
}

}  // namespace synapse::profile
