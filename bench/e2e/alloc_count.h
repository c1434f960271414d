// Global operator-new counter for the traced run (allocs per plan / per job).
// Counting is off by default: the untraced run pays one predictable branch
// per allocation and nothing else.
#pragma once

#include <cstdint>

namespace e2e {

void set_alloc_counting(bool on);
// Allocations (operator new / new[], aligned forms included) made while
// counting was on, over the whole process.
std::uint64_t allocations();

}  // namespace e2e
