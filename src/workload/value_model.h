/**
 * @file
 * SyntheticMemory: a deterministic backing store whose contents
 * follow a ValueProfile. Stands in for the data image of a SPEC2006
 * SimPoint trace (see DESIGN.md's substitution notes).
 *
 * Line contents are a pure function of (profile, value seed, line
 * index within the working set), so two program copies with the same
 * profile and seed carry identical data at the same offsets even in
 * different address spaces — the property behind the cooperative
 * multiprogram study (Fig 15, SPECrate-style). Stores overwrite
 * lines through an override map, modelling dirty data divergence.
 */

#ifndef CABLE_WORKLOAD_VALUE_MODEL_H
#define CABLE_WORKLOAD_VALUE_MODEL_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/line.h"
#include "common/types.h"
#include "workload/profile.h"

namespace cable
{

/** Abstract line-granular memory (what DRAM hands the L4). */
class MemoryImage
{
  public:
    virtual ~MemoryImage() = default;
    /** Current contents of the line containing @p addr. */
    virtual CacheLine lineAt(Addr addr) = 0;
    /** Persists written-back data. */
    virtual void storeLine(Addr addr, const CacheLine &data) = 0;
};

class SyntheticMemory : public MemoryImage
{
  public:
    /**
     * @param profile value-structure knobs
     * @param base lowest address served (working-set origin)
     * @param value_seed data-image seed; equal seeds + profiles mean
     *        identical values at identical working-set offsets
     */
    SyntheticMemory(const ValueProfile &profile, Addr base,
                    std::uint64_t value_seed);

    CacheLine lineAt(Addr addr) override;
    void storeLine(Addr addr, const CacheLine &data) override;

    /** Pure generator: contents of working-set line @p rel. */
    CacheLine generate(std::uint64_t rel) const;

    Addr base() const { return base_; }

  private:
    /** Constructor helpers: template line @p tid, word by word. */
    CacheLine templateLine(std::uint64_t tid) const;
    std::uint32_t
    templateWord(std::uint64_t tid, unsigned w) const;

    ValueProfile profile_;
    Addr base_;
    std::uint64_t seed_;
    /** Template lines by id, built once: generate() copies from it. */
    std::vector<CacheLine> templates_;
    std::unordered_map<Addr, CacheLine> overrides_;
};

} // namespace cable

#endif // CABLE_WORKLOAD_VALUE_MODEL_H
