// Process-wide heap-allocation counter and peak-RSS probe.
//
// alloc_counter.cc replaces the global operator new/delete of the perfbench
// binary (and only of it) with counting versions, so the benchmark can report
// allocations per request and per replayed kernel without touching the
// library under test.
#pragma once

#include <cstdint>

namespace perfbench {

// Heap allocations made through operator new since process start, on any
// thread.
int64_t AllocCount();

// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
