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
 * lines, modelling dirty data divergence; each written-back line is
 * kept as its difference from the generated one (DESIGN.md §3).
 */

#ifndef CABLE_WORKLOAD_VALUE_MODEL_H
#define CABLE_WORKLOAD_VALUE_MODEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/line.h"
#include "common/types.h"
#include "workload/profile.h"

namespace cable
{

/** Line-granular memory image: what DRAM hands the L4. */
class SyntheticMemory
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

    /** Current contents of the line containing @p addr (panics
     *  below base()). */
    CacheLine lineAt(Addr addr) const;
    /** Persists written-back data for the line containing @p addr
     *  (panics below base()). */
    void storeLine(Addr addr, const CacheLine &data);

    /** Pure generator: contents of working-set line @p rel. */
    CacheLine generate(std::uint64_t rel) const;

    Addr base() const { return base_; }

  private:
    /**
     * One written-back line, open-addressed by line address. `key`
     * is the line address | 1 (0 marks an empty slot). `diff` is
     * the line's difference from generate(): kSame, one changed
     * word (kOneWord, word index in bits 2-5, value in bits 32-63),
     * or kPooled with an index into pool_ in bits 2-63.
     */
    struct Slot
    {
        Addr key = 0;
        std::uint64_t diff = 0;
    };

    /** Working-set line index of line address @p la. */
    std::uint64_t relLine(Addr la) const;
    /** Index of @p key's slot, or of the empty slot ending its run. */
    std::size_t probe(Addr key) const;
    /** Doubles the table and re-places every slot. */
    void grow();

    /** Constructor helpers: template line @p tid, word by word. */
    CacheLine templateLine(std::uint64_t tid) const;
    std::uint32_t
    templateWord(std::uint64_t tid, unsigned w) const;

    ValueProfile profile_;
    Addr base_;
    std::uint64_t seed_;
    /** Template lines by id, built once: generate() copies from it. */
    std::vector<CacheLine> templates_;
    /** Power-of-two table, at most 3/4 full. */
    std::vector<Slot> slots_;
    /** 64 - log2(slots_.size()): Fibonacci hash shift. */
    unsigned shift_;
    std::size_t used_ = 0;
    /** Whole lines with two or more changed words; never freed. */
    std::vector<CacheLine> pool_;
};

} // namespace cable

#endif // CABLE_WORKLOAD_VALUE_MODEL_H
