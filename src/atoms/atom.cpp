#include "atoms/atom.hpp"

#include <exception>

namespace synapse::atoms {

void Atom::consume_frame(const profile::DeltaFrame& frame,
                         const LaneMask& mask) {
  (void)mask;
  // The compatibility adapter: atoms that never learned about frames see
  // one per-sample map per row — the profile's sample deltas, keys
  // sorted — gated by wants(), with the per-row exception contract.
  for (size_t row = 0; row < frame.rows(); ++row) {
    const profile::SampleDelta delta = frame.unbox(row);
    if (!wants(delta)) continue;
    try {
      consume(delta);
    } catch (const std::exception&) {
      // Failures are recorded in the atom's stats, never propagated —
      // one atom cannot wedge the frame barrier.
    }
  }
}

}  // namespace synapse::atoms
