/**
 * @file
 * Off-chip link model (Table IV: 16-bit @ 9.6GHz by default, QPI /
 * HyperTransport-like). Transfers are quantized into width-bit flits
 * — which is what caps effective compression at 32x on a 16-bit link
 * (§III-E) — and contend for the wire through busy-until FCFS
 * queueing. Optionally models the Fig 23 "Packed" transport, which
 * concatenates transactions with a 6-bit length header instead of
 * padding each to a flit boundary, and tracks per-wire bit toggles
 * for the §VI-D toggle study.
 */

#ifndef CABLE_SIM_LINK_H
#define CABLE_SIM_LINK_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "compress/bitstream.h"

namespace cable
{

class LinkModel
{
  public:
    struct Config
    {
        unsigned width_bits = 16;
        double link_ghz = 9.6;
        double core_ghz = 2.0;
        /** Packed transport: 6-bit length header, no flit padding. */
        bool packed = false;
        /** Extra serialization latency per transfer (20ns setup). */
        unsigned setup_cycles = 40;
    };

    explicit LinkModel(const Config &cfg);

    /** Flits needed for @p bits on this link. */
    std::uint64_t flitsFor(std::size_t bits) const;

    /** Core cycles to serialize @p bits (no queueing). */
    Cycles serializeCycles(std::size_t bits) const;

    /**
     * Queues a transfer of @p bits starting no earlier than @p now;
     * returns its completion time (FCFS busy-until). Also accounts
     * flit and bit counters.
     */
    Cycles acquire(Cycles now, std::size_t bits);

    /** Bandwidth accounting without timing (functional studies). */
    void countOnly(std::size_t bits);

    /** Feeds a wire image through the toggle counter. */
    void countToggles(const BitVec &wire);

    /** Total payload capacity used [0,1] over @p elapsed cycles. */
    double utilization(Cycles elapsed) const;

    const Config &config() const { return cfg_; }
    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    double bitsPerCoreCycle() const { return bits_per_cycle_; }
    Cycles busyUntil() const { return busy_until_; }

  private:
    Config cfg_;
    double bits_per_cycle_;
    Cycles busy_until_ = 0;
    std::uint64_t packed_spill_bits_ = 0;
    std::vector<bool> last_flit_;
    StatSet stats_;
    CounterId transfers_ = stats_.counterId("transfers"),
              payload_bits_ = stats_.counterId("payload_bits"),
              flits_ = stats_.counterId("flits"),
              toggles_ = stats_.counterId("toggles");
};

} // namespace cable

#endif // CABLE_SIM_LINK_H
