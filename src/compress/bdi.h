/**
 * @file
 * Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).
 *
 * A line is encoded as one base value plus per-element deltas; each
 * element additionally carries an "immediate" bit selecting between
 * the learned base and an implicit zero base, which lets lines that
 * mix pointers with small integers compress. Eight encodings are
 * tried (zero line, repeated value, and base-size/delta-size pairs
 * {8,1} {8,2} {8,4} {4,1} {4,2} {2,1}); the smallest valid one wins.
 *
 * BDI is a per-line algorithm with no dictionary, representing the
 * paper's "non-dictionary" baseline class together with C-PACK.
 */

#ifndef CABLE_COMPRESS_BDI_H
#define CABLE_COMPRESS_BDI_H

#include "compress/compressor.h"

namespace cable
{

class Bdi : public Compressor
{
  public:
    std::string name() const override { return "bdi"; }
    BitVec compress(const CacheLine &line, const RefList &refs) override;
    using Compressor::decode;
    DecodeResult decode(BitReader &br, const RefList &refs) override;
};

} // namespace cable

#endif // CABLE_COMPRESS_BDI_H
