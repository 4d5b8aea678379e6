#pragma once

namespace smiless::serverless {

/// Shared identifier vocabulary of the serverless layer. Hoisted out of
/// policy.hpp so the Policy interface, the Platform, its AppTable and its
/// Ledger can name the same ids without a Policy<->Platform header tangle.

/// Index into the platform's application table, in deployment order.
using AppId = int;

/// Per-app request index, in submission order.
using RequestId = int;

/// Per-function container instance id, assigned monotonically per function.
using InstanceId = int;

/// Why a container instance disappeared without the policy asking for it.
enum class InstanceFailure {
  InitFailure,  ///< cold init failed (fault injection)
  Eviction,     ///< the machine hosting it went down
};

/// Container lifecycle state: Init -> Idle <-> Busy -> terminated.
enum class InstanceState { Init, Idle, Busy };

}  // namespace smiless::serverless
