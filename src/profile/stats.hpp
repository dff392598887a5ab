#pragma once
// Statistics over repeated profiles.
//
// The paper collects multiple profiles per command/tag combination and
// performs "basic statistics analysis" (section 4); experiment E.3 reports
// 99% confidence intervals. This module provides the descriptive
// statistics used throughout the test suite and the benches.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace synapse::profile {

/// Descriptive statistics of one metric across repetitions.
struct MetricStats {
  size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;   ///< sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  double ci99_half = 0.0;  ///< half-width of the 99% confidence interval

  double ci99_low() const { return mean - ci99_half; }
  double ci99_high() const { return mean + ci99_half; }
  /// CI half-width as a fraction of the mean (paper quotes <= 6.6%).
  double ci99_relative() const { return mean != 0 ? ci99_half / mean : 0.0; }
};

/// Compute stats of a raw series.
MetricStats compute_stats(const std::vector<double>& values);

/// Student-t critical value for a two-sided 99% interval with n-1 dof
/// (tabulated for small n, 2.576 asymptote).
double t_critical_99(size_t n);

/// Aggregate the totals of repeated profiles of the same workload:
/// metric name -> stats across profiles.
std::map<std::string, MetricStats> aggregate_totals(
    const std::vector<Profile>& profiles);

/// aggregate_totals over shared profiles (a ProfileStore snapshot).
std::map<std::string, MetricStats> aggregate_totals(
    const std::vector<std::shared_ptr<const Profile>>& profiles);

/// Relative difference |a-b| / b, the paper's "diff (%)" (times 100).
double relative_diff(double a, double b);

}  // namespace synapse::profile
