#include "watchers/sys_watcher.hpp"

#include "profile/metrics.hpp"
#include "sys/procfs.hpp"

namespace synapse::watchers {

namespace m = synapse::metrics;

void SysWatcher::sample(double now) {
  profile::Sample s;
  if (const auto la = sys::read_loadavg()) {
    s.set(m::kLoadCpu, la->load1);
  }
  if (const auto mi = sys::read_meminfo()) {
    if (mi->total_bytes > 0) {
      s.set(m::kLoadMemory,
            1.0 - static_cast<double>(mi->available_bytes) /
                      static_cast<double>(mi->total_bytes));
    }
  }
  if (!s.values.empty()) record(now, std::move(s));
}

std::optional<double> SysWatcher::activity_counter() {
  const auto la = sys::read_loadavg();
  if (!la) return std::nullopt;
  return la->load1;
}

void SysWatcher::finalize(const std::vector<const Watcher*>& all,
                          std::map<std::string, double>& totals) {
  (void)all;
  // Load is an ambient observation; store the run average.
  double sum = 0.0;
  size_t n = 0;
  if (const profile::MetricColumn* load = series_.samples.find(m::kLoadCpu)) {
    for (size_t row = 0; row < series_.samples.size(); ++row) {
      if (load->present[row] == 0) continue;
      sum += load->values[row];
      ++n;
    }
  }
  if (n > 0) totals[std::string(m::kLoadCpu)] = sum / static_cast<double>(n);
}

}  // namespace synapse::watchers
