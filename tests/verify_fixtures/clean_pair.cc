// Fixture: a fully symmetric writer/reader pair with a contract
// declaration, a repeated body field, and the two legitimate
// non-wire get() shapes (name-keyed accessor, smart pointer).
// cable_verify.py must report nothing for this file.

#include <cstdint>
#include <memory>

inline constexpr unsigned kMagicBits = 16;
inline constexpr unsigned kLenBits = 8;
inline constexpr unsigned kByteBits = 8;

struct BitWriter
{
    void put(unsigned long long value, unsigned nbits);
};

struct BitReader
{
    unsigned long long get(unsigned nbits);
    unsigned long long get(unsigned nbits, const char *what);
};

struct StatSet
{
    unsigned long long get(const char *name) const;
};

// cable-wire-decl: pair.msg magic kMagicBits
// cable-wire-decl: pair.msg len kLenBits
// cable-wire-decl: pair.msg body kByteBits*len

void
writeMsg(BitWriter &bw, const unsigned char *body, unsigned len)
{
    // cable-wire: pair.msg magic kMagicBits
    bw.put(0xC0DEu, kMagicBits);
    // cable-wire: pair.msg len kLenBits
    bw.put(len, kLenBits);
    for (unsigned i = 0; i < len; ++i)
        // cable-wire: pair.msg body kByteBits*len
        bw.put(body[i], kByteBits);
}

unsigned long long
readMsg(BitReader &br, const StatSet &stats,
        const std::shared_ptr<int> &owner)
{
    // cable-wire: pair.msg magic kMagicBits
    unsigned long long acc = br.get(kMagicBits);
    // cable-wire: pair.msg len kLenBits
    unsigned long long len = br.get(kLenBits, "MSG");
    for (unsigned long long i = 0; i < len; ++i)
        // cable-wire: pair.msg body kByteBits*len
        acc += br.get(kByteBits);
    acc += stats.get("transfers");            // name-keyed accessor
    acc += owner.get() != nullptr ? 1u : 0u;  // smart pointer
    return acc;
}
