#pragma once

#include "common/json.hpp"
#include "serverless/platform.hpp"

namespace smiless::serverless {

/// Serialize every scalar knob of PlatformOptions (the `faults` pointer is
/// runtime wiring, not configuration — the fault *spec* serializes through
/// faults::to_json and is attached by the experiment layer). Keys are
/// emitted in declaration order so the output is byte-stable.
json::Value to_json(const PlatformOptions& o);

/// Inverse of to_json. Missing keys keep their defaults, so configs written
/// by older builds keep loading. Rejects what `validate` rejects.
PlatformOptions platform_options_from_json(const json::Value& v);

/// Throw `json: 'key' must be <rule>, got <value>` unless `window_seconds`
/// is finite and > 0, `inference_noise` >= 0, `retry_delay` > 0,
/// `retry_backoff` >= 1, `retry_max_delay` >= `retry_delay` and
/// `request_timeout` > 0 (Platform's preconditions).
void validate(const PlatformOptions& o);

}  // namespace smiless::serverless
