#include "compress/oracle.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "common/log.h"

namespace cable
{

Oracle::Oracle()
    : lbe_(Lbe::Config{/*dict_bytes=*/256, /*persistent=*/false})
{
}

BitVec
Oracle::compress(const CacheLine &line, const RefList &refs)
{
    BitVec dp = dpEncode(line, refs);
    BitVec word = lbe_.compress(line, refs);
    BitWriter bw;
    if (dp.sizeBits() <= word.sizeBits()) {
        bw.put(0, 1);
        bw.appendBits(dp);
    } else {
        bw.put(1, 1);
        bw.appendBits(word);
    }
    return bw.take();
}

DecodeResult
Oracle::decode(BitReader &br, const RefList &refs)
{
    // The selector picks the word-aligned LBE payload or the byte DP.
    return br.get(1) ? lbe_.decode(br, refs) : dpDecode(br, refs);
}

BitVec
Oracle::dpEncode(const CacheLine &line, const RefList &refs) const
{
    // Combined source buffer: references then the line itself (the
    // prefix part only becomes addressable as it is produced).
    std::array<std::uint8_t, kSourceBytes> src{};
    const unsigned rlen = refBytes(refs, src.data());
    std::memcpy(src.data() + rlen, line.data(), kLineBytes);

    // maxlen[i]: longest copy available at line position i, and the
    // offset achieving it. Sources must *start* before the decode
    // frontier but may overlap it (LZ run semantics): the decoder
    // produces bytes sequentially, so a copy reading its own output
    // reproduces periodic runs — which is also why comparing against
    // the original line bytes is exact here.
    std::array<unsigned, kLineBytes> maxlen{};
    std::array<unsigned, kLineBytes> bestoff{};
    for (unsigned i = 0; i < kLineBytes; ++i) {
        unsigned avail = rlen + i;
        unsigned best = 0, boff = 0;
        for (unsigned o = 0; o < avail; ++o) {
            unsigned lim =
                std::min<unsigned>(kMaxCopy, kLineBytes - i);
            unsigned len = 0;
            while (len < lim && src[o + len] == src[rlen + i + len])
                ++len;
            if (len > best) {
                best = len;
                boff = o;
            }
        }
        maxlen[i] = best;
        bestoff[i] = boff;
    }

    // DP over prefix lengths.
    constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 2;
    constexpr unsigned kLitBits = 1 + 8;
    constexpr unsigned kCopyBits = 1 + kOffsetBits + kLenBits;
    std::array<unsigned, kLineBytes + 1> cost{};
    std::array<int, kLineBytes + 1> from{};   // predecessor position
    std::array<unsigned, kLineBytes + 1> via{}; // copy len, 0=literal
    cost.fill(kInf);
    cost[0] = 0;
    for (unsigned i = 0; i < kLineBytes; ++i) {
        if (cost[i] == kInf)
            continue;
        if (cost[i] + kLitBits < cost[i + 1]) {
            cost[i + 1] = cost[i] + kLitBits;
            from[i + 1] = static_cast<int>(i);
            via[i + 1] = 0;
        }
        for (unsigned len = kMinCopy; len <= maxlen[i]; ++len) {
            if (cost[i] + kCopyBits < cost[i + len]) {
                cost[i + len] = cost[i] + kCopyBits;
                from[i + len] = static_cast<int>(i);
                via[i + len] = len;
            }
        }
    }

    // Reconstruct token sequence.
    struct Token
    {
        unsigned pos;
        unsigned len; // 0 = literal
    };
    std::vector<Token> tokens;
    for (unsigned i = kLineBytes; i > 0;
         i = static_cast<unsigned>(from[i])) {
        tokens.push_back({static_cast<unsigned>(from[i]), via[i]});
    }
    std::reverse(tokens.begin(), tokens.end());

    BitWriter bw;
    for (const Token &t : tokens) {
        if (t.len == 0) {
            bw.put(0, 1);
            bw.put(line.byte(t.pos), 8);
        } else {
            bw.put(1, 1);
            bw.put(bestoff[t.pos], kOffsetBits);
            bw.put(t.len - kMinCopy, kLenBits);
        }
    }
    return bw.take();
}

DecodeResult
Oracle::dpDecode(BitReader &br, const RefList &refs) const
{
    std::array<std::uint8_t, kSourceBytes> src{};
    const unsigned rlen = refBytes(refs, src.data());
    unsigned pos = rlen; // the decode frontier in src
    while (pos < rlen + kLineBytes) {
        if (!br.get(1)) {
            src[pos++] = static_cast<std::uint8_t>(br.get(8));
            continue;
        }
        const auto off = static_cast<unsigned>(br.get(kOffsetBits));
        const unsigned len =
            static_cast<unsigned>(br.get(kLenBits)) + kMinCopy;
        if (pos + len > rlen + kLineBytes)
            return DecodeResult::fail(br, DecodeError::BadShape);
        if (off >= pos)
            return DecodeResult::fail(br, DecodeError::BadDistance);
        // Overlapped copies read bytes this loop wrote.
        for (unsigned k = 0; k < len; ++k)
            src[pos++] = src[off + k];
    }
    return DecodeResult::of(br, CacheLine::fromBytes(src.data() + rlen));
}

unsigned
Oracle::refBytes(const RefList &refs, std::uint8_t *src)
{
    if ((refs.size() + 1) * kLineBytes > kSourceBytes)
        panic("Oracle: %zu references exceed the offset field",
              refs.size());
    unsigned n = 0;
    for (const CacheLine *ref : refs) {
        std::memcpy(src + n, ref->data(), kLineBytes);
        n += kLineBytes;
    }
    return n;
}

} // namespace cable
