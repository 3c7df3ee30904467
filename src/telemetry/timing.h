/**
 * @file
 * Host-time stage timing is the span recorder's job alone
 * (telemetry/spans.h, DESIGN.md §13): span sampling
 * (`setSpanSampling`) is the only timer period, and nothing here
 * measures anything.
 *
 * This header holds one no-op only because benchmark/probe.cc
 * includes it and calls setTimingSamplePeriod(), and that harness is
 * left unchanged. Nothing else may call it; delete this file
 * together with those calls when benchmark/ next changes.
 */

#ifndef CABLE_TELEMETRY_TIMING_H
#define CABLE_TELEMETRY_TIMING_H

#include <cstdint>

namespace cable
{

/** No-op: there is no stage timer besides the span recorder. */
inline void setTimingSamplePeriod(std::uint64_t) {}

} // namespace cable

#endif // CABLE_TELEMETRY_TIMING_H
