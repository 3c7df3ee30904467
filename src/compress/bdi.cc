#include "compress/bdi.h"

#include <cstdint>
#include <optional>

namespace cable
{

namespace
{

// 4-bit encoding selectors.
enum Encoding : unsigned
{
    kZero = 0,
    kRep8 = 1,
    kB8D1 = 2,
    kB8D2 = 3,
    kB8D4 = 4,
    kB4D1 = 5,
    kB4D2 = 6,
    kB2D1 = 7,
    kRaw = 8,
};

struct Shape
{
    unsigned base_bytes;
    unsigned delta_bytes;
};

/** Base and delta sizes of kB8D1..kB2D1, in encoding order. */
constexpr Shape kShapes[] = {{8, 1}, {8, 2}, {8, 4}, {4, 1}, {4, 2}, {2, 1}};

const Shape &
shapeOf(unsigned enc)
{
    return kShapes[enc - kB8D1];
}

std::uint64_t
element(const CacheLine &line, unsigned base_bytes, unsigned i)
{
    switch (base_bytes) {
      case 8: return line.word64(i);
      case 4: return line.word(i);
      default: // 2, the only other size in kShapes
        return static_cast<std::uint64_t>(line.byte(i * 2))
               | (static_cast<std::uint64_t>(line.byte(i * 2 + 1)) << 8);
    }
}

void
setElement(CacheLine &line, unsigned base_bytes, unsigned i,
           std::uint64_t v)
{
    switch (base_bytes) {
      case 8: line.setWord64(i, v); break;
      case 4: line.setWord(i, static_cast<std::uint32_t>(v)); break;
      default: // 2
        line.setByte(i * 2, static_cast<std::uint8_t>(v));
        line.setByte(i * 2 + 1, static_cast<std::uint8_t>(v >> 8));
    }
}

/** Whether the signed difference fits in delta_bytes bytes. */
bool
fitsDelta(std::uint64_t value, std::uint64_t base, unsigned delta_bytes)
{
    std::int64_t diff = static_cast<std::int64_t>(value - base);
    std::int64_t lim = std::int64_t{1} << (delta_bytes * 8 - 1);
    return diff >= -lim && diff < lim;
}

/**
 * Tries one base/delta shape. Returns the encoded size in bits if
 * the line fits, plus the chosen base through @p base_out.
 */
std::optional<std::size_t>
tryShape(const CacheLine &line, const Shape &s, std::uint64_t &base_out)
{
    unsigned n = kLineBytes / s.base_bytes;
    bool have_base = false;
    std::uint64_t base = 0;
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t v = element(line, s.base_bytes, i);
        if (fitsDelta(v, 0, s.delta_bytes))
            continue; // zero-base immediate
        if (!have_base) {
            base = v;
            have_base = true;
        } else if (!fitsDelta(v, base, s.delta_bytes)) {
            return std::nullopt;
        }
    }
    base_out = base;
    // header + base + per-element (immediate bit + delta)
    return 4 + s.base_bytes * 8 + n * (1 + s.delta_bytes * 8);
}

} // namespace

BitVec
Bdi::compress(const CacheLine &line, const RefList &)
{
    BitWriter bw;

    if (line.isZero()) {
        bw.put(kZero, 4);
        return bw.take();
    }

    bool repeated = true;
    for (unsigned i = 1; i < kLineBytes / 8; ++i) {
        if (line.word64(i) != line.word64(0)) {
            repeated = false;
            break;
        }
    }
    if (repeated) {
        bw.put(kRep8, 4);
        bw.put(line.word64(0), 64);
        return bw.take();
    }

    unsigned best_enc = kRaw;
    std::size_t best_bits = 4 + kLineBytes * 8;
    std::uint64_t best_base = 0;
    for (unsigned enc : {kB8D1, kB8D2, kB8D4, kB4D1, kB4D2, kB2D1}) {
        std::uint64_t base = 0;
        auto bits = tryShape(line, shapeOf(enc), base);
        if (bits && *bits < best_bits) {
            best_bits = *bits;
            best_enc = enc;
            best_base = base;
        }
    }

    if (best_enc == kRaw) {
        bw.put(kRaw, 4);
        for (unsigned i = 0; i < kLineBytes / 8; ++i)
            bw.put(line.word64(i), 64);
        return bw.take();
    }

    const Shape &s = shapeOf(best_enc);
    unsigned n = kLineBytes / s.base_bytes;
    bw.put(best_enc, 4);
    bw.put(best_base, s.base_bytes * 8);
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t v = element(line, s.base_bytes, i);
        bool immediate = fitsDelta(v, 0, s.delta_bytes);
        bw.put(immediate ? 1 : 0, 1);
        std::uint64_t delta = v - (immediate ? 0 : best_base);
        bw.put(delta & ((s.delta_bytes * 8 == 64)
                            ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << (s.delta_bytes * 8)) - 1)),
               s.delta_bytes * 8);
    }
    return bw.take();
}

DecodeResult
Bdi::decode(BitReader &br, const RefList &)
{
    CacheLine line;
    unsigned enc = static_cast<unsigned>(br.get(4));
    if (enc > kRaw)
        return DecodeResult::fail(br, DecodeError::BadOpcode);

    if (enc == kZero)
        return DecodeResult::of(br, line);

    if (enc == kRep8) {
        std::uint64_t v = br.get(64);
        for (unsigned i = 0; i < kLineBytes / 8; ++i)
            line.setWord64(i, v);
        return DecodeResult::of(br, line);
    }

    if (enc == kRaw) {
        for (unsigned i = 0; i < kLineBytes / 8; ++i)
            line.setWord64(i, br.get(64));
        return DecodeResult::of(br, line);
    }

    const Shape &s = shapeOf(enc);
    unsigned n = kLineBytes / s.base_bytes;
    std::uint64_t base = br.get(s.base_bytes * 8);
    std::uint64_t mask = s.base_bytes == 8
                             ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (s.base_bytes * 8)) - 1;
    for (unsigned i = 0; i < n; ++i) {
        bool immediate = br.get(1);
        std::uint64_t raw = br.get(s.delta_bytes * 8);
        // Sign-extend the delta.
        std::uint64_t sign_bit = std::uint64_t{1} << (s.delta_bytes * 8 - 1);
        std::int64_t delta = static_cast<std::int64_t>(
            (raw ^ sign_bit) - sign_bit);
        std::uint64_t v =
            ((immediate ? 0 : base) + static_cast<std::uint64_t>(delta))
            & mask;
        setElement(line, s.base_bytes, i, v);
    }
    return DecodeResult::of(br, line);
}

} // namespace cable
