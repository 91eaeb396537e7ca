// Seeded process-level chaos for sharded campaigns.
//
// The fault injector (sim/fault_injector.hpp) breaks *measurements*; this
// layer breaks *workers*. Under a chaos profile a campaign worker process
// SIGKILLs itself or wedges (stops making progress) just before running a
// planned epoch, so the supervisor's crash detection, hang detection,
// retry/backoff and shard reassignment paths are exercised by tests instead
// of trusted on faith (DESIGN.md §15.4).
//
// Same discipline as PR 3 faults: every decision is drawn up front from a
// dedicated derive_seed stream, so a chaos run is a pure function of
// (profile, campaign seed, attempt, epoch index). The relaunch attempt
// number participates in the stream on purpose — a kill planned at epoch e
// must not be re-planned at e forever, or no amount of retrying would ever
// finish the shard. Each attempt re-rolls the surviving epochs, so progress
// plus per-epoch checkpointing converges with probability 1 while the full
// kill/hang schedule stays exactly replayable.
//
// Layering: pure decision logic on sim/rng.hpp; knows nothing about
// processes or the testbed. tools/tcppred_campaign applies the plan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tcppred::sim {

/// Per-epoch chaos rates for a campaign worker. Default-off: a disabled
/// profile makes workers behave exactly as if this layer did not exist.
struct chaos_profile {
    double kill_rate{0.0};  ///< P[worker SIGKILLs itself before an epoch]
    double hang_rate{0.0};  ///< P[worker wedges before an epoch]
    /// How long a wedged worker sleeps. Far longer than any sane heartbeat
    /// timeout, so a hang is indistinguishable from a real wedge; the
    /// supervisor must SIGKILL it.
    double hang_s{3600.0};
    /// Chaos-stream seed. 0 (the default) derives the stream from the
    /// campaign seed, so `--seed` alone pins the whole chaos schedule.
    std::uint64_t seed{0};

    [[nodiscard]] bool enabled() const noexcept {
        return kill_rate > 0.0 || hang_rate > 0.0;
    }

    /// Canonical spec string ("off" when disabled).
    [[nodiscard]] std::string spec() const;

    /// Parse a comma-separated spec, e.g. "kill=0.05,hang=0.02,hang-s=60,seed=9".
    /// Unknown keys or rates outside [0,1] throw std::invalid_argument.
    [[nodiscard]] static chaos_profile parse(std::string_view spec);

    /// Profile from $REPRO_CHAOS (unset or empty -> disabled). A malformed
    /// spec throws core::parse_error naming the variable.
    [[nodiscard]] static chaos_profile from_env();
};

/// What a worker does immediately before running one epoch.
enum class chaos_action { none, kill, hang };

/// Resolve the chaos decision for linear epoch `idx` on relaunch `attempt`
/// (0 = first launch). Deterministic in (profile, campaign_seed, attempt,
/// idx) alone; one draw per epoch in fixed order, so enabling hangs never
/// re-randomizes the kill schedule.
[[nodiscard]] chaos_action plan_chaos(const chaos_profile& profile,
                                      std::uint64_t campaign_seed, int attempt,
                                      std::size_t idx);

/// The relaunch attempt number the supervisor hands to a worker process via
/// $REPRO_CHAOS_ATTEMPT (absent or unparsable -> 0).
[[nodiscard]] int chaos_attempt_from_env();

}  // namespace tcppred::sim
