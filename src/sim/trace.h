// Trace rendering: ASCII Gantt charts of pipeline schedules (the shape of
// paper Figs. 3, 4, 7, 8) and memory-over-time plots (Fig. 3(c)). These are
// diagnostics for examples/benches, not part of the simulation itself.
#pragma once

#include <string>

#include "sim/engine.h"
#include "sim/graph.h"

namespace dapple::sim {

/// Renders one lane per resource. Forward tasks print the micro-batch index
/// digit, backward tasks a letter (0->a), 2BP weight halves a capital (0->A),
/// recompute 'r', transfers '-', allreduce '#', apply '='. Idle time is '.'.
std::string RenderGantt(const TaskGraph& graph, const SimResult& result, int width = 100);

/// Renders a pool's resident-bytes trajectory as a `height`-row bar plot
/// with a byte-scale legend.
std::string RenderMemoryTimeline(const MemoryPool& pool, TimeSec horizon, int width = 80,
                                 int height = 8);

}  // namespace dapple::sim
