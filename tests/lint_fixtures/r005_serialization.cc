// Fixture: serialization code in the checkpoint/resync family must
// name every wire width and never serialize through raw memory
// images. R005 fires on memcpy/memmove/reinterpret_cast; a justified
// allowance suppresses it. Bare literal widths in put()/get() calls
// are R003's alone, which covers the checkpoint/resync files too.

#include <cstdint>
#include <cstring>

inline constexpr unsigned kMagicBits = 32;
inline constexpr unsigned kCountBits = 48;

struct BitWriter
{
    void put(unsigned long long value, unsigned nbits);
};

struct BitReader
{
    unsigned long long get(unsigned nbits);
};

struct Header
{
    std::uint32_t magic;
    std::uint32_t body_bits;
};

void
writeHeader(BitWriter &bw, const Header &h)
{
    bw.put(h.magic, kMagicBits);  // allowed: named width
    bw.put(h.body_bits, 32);      // expect: R003
}

void
readHeader(BitReader &br, Header &h)
{
    h.magic = static_cast<std::uint32_t>(br.get(kMagicBits));
    h.body_bits = static_cast<std::uint32_t>(br.get(32));  // expect: R003
}

unsigned long long
readCount(BitReader &br, unsigned nbits)
{
    return br.get(nbits);  // allowed: width flows from a named source
}

void
rawImage(const Header &h, unsigned char *out)
{
    std::memcpy(out, &h, sizeof(h));  // expect: R005
    std::memmove(out + 8, out, 8);    // expect: R005
    const std::uint32_t *w =
        reinterpret_cast<const std::uint32_t *>(out);  // expect: R005
    (void)w;
}

void
copyPayload(unsigned char *dst, const unsigned char *payload)
{
    // cable-lint: allow(R005) byte-granular copy of a trivially-
    // copyable line payload; no structure layout crosses the wire.
    std::memcpy(dst, payload, 64);
}
