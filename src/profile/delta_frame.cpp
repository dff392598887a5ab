#include "profile/delta_frame.hpp"

#include <algorithm>

namespace synapse::profile {

uint32_t LaneTable::id(std::string_view name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return kNoLane;
  return static_cast<uint32_t>(it - names_.begin());
}

void DeltaTable::scale_lane(uint32_t lane, double factor) {
  if (lane == LaneTable::kNoLane) return;
  for (double& v : values_[lane]) v *= factor;
}

SampleDelta DeltaTable::unbox(size_t row) const {
  SampleDelta out;
  out.duration = durations_[row];
  // Lanes iterate in sorted name order, so the map is built by appending
  // at its end.
  for (uint32_t lane = 0; lane < lanes_.size(); ++lane) {
    if (present_[lane][row] == 0) continue;
    out.deltas.emplace_hint(out.deltas.end(), lanes_.name(lane),
                            values_[lane][row]);
  }
  return out;
}

}  // namespace synapse::profile
