#pragma once
// The replay engine: the ONE place that feeds a profile's sample
// sequence to emulation atoms (paper section 4.2, Fig. 2 semantics).
//
// Both emulation modes are drivers over this engine:
//   - single mode runs one engine in-process;
//   - process-parallel mode forks N ranks, each running one engine on a
//     per-rank slice of the options (emulator.cpp).
//
// The engine resolves the configured atom set through an AtomRegistry
// (atoms/atom_registry.hpp), so custom atoms registered at runtime
// participate in replay without any emulator change. Per-sample
// semantics are unchanged from the paper: samples replay strictly in
// recorded order, all atoms of one sample start concurrently, the
// sample ends when the LAST atom finishes, and intra-sample timing is
// discarded.
//
// One feed loop serves both modes (EmulatorOptions::replay_batch). The
// replay is compiled into a ReplayPlan first (replay_plan.hpp): deltas
// become a columnar DeltaTable with interned metric lanes, scale
// factors are baked in once, and each atom's wanted metrics resolve to
// a LaneMask. The loop then walks the table in {first_row, rows}
// windows — 1 row in single mode, replay_batch rows in batch mode:
//
//   - each engaged atom (one with a recorded metric, or one without
//     declared metrics) gets one persistent worker thread for the run;
//   - the coordinator releases a window by waking exactly the atoms
//     whose LaneMask wants a row of it (Atom::consume_frame; atoms
//     without frame support go through its default unboxing adapter),
//     waits until all of them consumed it, fires the per-sample hook
//     for every row of the window in recorded order, and paces.
//
// Single mode is therefore the paper's per-sample barrier; batch mode
// coarsens the barrier (and moves the hooks) to window granularity,
// amortizing the handoff, and unless paced lets the workers run up to
// EmulatorOptions::replay_queue_depth windows ahead of the barrier.
// Each atom consumes its rows in recorded order either way, so every
// non-timing stat is identical across modes (pinned by the golden
// fixtures in tests/fixtures). All waits spin, then yield, then block
// on a condition variable: a handoff between busy threads costs well
// under a microsecond, and an idle worker costs no CPU.
//
// Either mode optionally paces the feed by the recorded inter-sample
// gaps (EmulatorOptions::pace; default: variable-rate profiles only):
// each window is released at its first row's recorded offset, so
// consumption order, barriers and hook order are identical paced or
// not.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atoms/atom_registry.hpp"
#include "emulator/emulator.hpp"
#include "profile/profile.hpp"

namespace synapse::emulator {

class ReplayEngine {
 public:
  /// Called after every replayed sample with its index (0-based) —
  /// process-parallel mode hangs the halo-exchange ring step here.
  using SampleHook = std::function<void(size_t)>;

  /// `registry` = nullptr uses the process-wide AtomRegistry::instance().
  /// The registry must outlive the engine; it is not copied.
  explicit ReplayEngine(EmulatorOptions options,
                        const atoms::AtomRegistry* registry = nullptr);

  /// Build the configured atoms (startup/calibration), feed every
  /// sample delta through the barrier loop, and aggregate per-atom
  /// stats. Blocks until the last sample completes.
  EmulationResult replay(const profile::Profile& profile,
                         const SampleHook& per_sample_hook = {});

  /// The atom names this engine will instantiate: the declarative
  /// EmulatorOptions::atom_set when non-empty, otherwise the built-ins
  /// selected by the emulate_* flags (network included only behind
  /// emulate_network).
  static std::vector<std::string> resolve_atom_set(
      const EmulatorOptions& options);

  /// Parallel-efficiency model for the VR compute time (Amdahl serial
  /// fraction + per-worker coordination overhead): scale factor applied
  /// to per-sample compute budgets when emulating with N workers.
  static double parallel_time_factor(int workers, double overhead_per_worker);

  /// Copy one atom's stats into the matching named EmulationResult slot
  /// (the built-ins' convenience mirrors); no-op for custom names.
  static void mirror_builtin_stats(EmulationResult& result,
                                   const std::string& name,
                                   const atoms::AtomStats& stats);

  const EmulatorOptions& options() const { return options_; }
  const atoms::AtomRegistry& registry() const { return *registry_; }

 private:
  /// The feed loop over the compiled plan (see the header comment).
  void feed(const profile::Profile& profile, const EmulatorOptions& opts,
            const std::vector<std::unique_ptr<atoms::Atom>>& active,
            const SampleHook& per_sample_hook, EmulationResult& result);

  EmulatorOptions options_;
  const atoms::AtomRegistry* registry_;  ///< not owned, never null
};

}  // namespace synapse::emulator
