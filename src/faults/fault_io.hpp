#pragma once

#include "common/json.hpp"
#include "faults/fault_injector.hpp"

namespace smiless::faults {

/// Serialize a FaultSpec. A default spec (all knobs off) serializes to an
/// object whose round-trip reproduces `FaultSpec{}` exactly, preserving the
/// "defaults replay the fault-free trajectory" contract.
json::Value to_json(const FaultSpec& spec);

/// Inverse of to_json; missing keys keep their defaults. Rejects what
/// `validate` rejects.
FaultSpec fault_spec_from_json(const json::Value& v);

/// Throw `json: 'key' must be <rule>, got <value>` unless both
/// probabilities are in [0, 1], `straggler_factor` >= 1, `crash_rate` >= 0,
/// `mttr` > 0 and each scheduled crash's `duration` > 0 (FaultInjector's
/// preconditions). Whether a crash's machine exists depends on the fleet;
/// serverless::ShardedPlatform checks that.
void validate(const FaultSpec& spec);

}  // namespace smiless::faults
