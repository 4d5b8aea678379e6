#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through operator new while the counter is armed.
/// The driver replaces the global operator new/delete family; disarmed (the
/// timed passes) each allocation pays one relaxed atomic load on top of
/// malloc, armed (the traced pass, serving phase only) one relaxed
/// fetch_add. Allocations from every thread count, lane threads included.
void arm_alloc_counter(bool armed);
std::uint64_t allocations();

}  // namespace perfbench
