#include "compress/lzss.h"

#include <algorithm>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

Lzss::Lzss() : Lzss(Config{}) {}

Lzss::Lzss(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.window_bytes < kLineBytes)
        fatal("Lzss: window must be at least one line");
    if (!isPow2(cfg_.window_bytes))
        fatal("Lzss: window must be a power of two");
    dist_bits_ = bitsToIndex(cfg_.window_bytes + 1);
}

std::string
Lzss::name() const
{
    return cfg_.persistent ? "gzip" : "lzss";
}

std::uint8_t
Lzss::byteAt(std::uint64_t abs) const
{
    return history_[abs - trim_base_];
}

unsigned
Lzss::hashAt(std::uint64_t abs) const
{
    std::uint32_t v = byteAt(abs)
        | (static_cast<std::uint32_t>(byteAt(abs + 1)) << 8)
        | (static_cast<std::uint32_t>(byteAt(abs + 2)) << 16);
    return (v * 2654435761u) >> (32 - kHashBits);
}

void
Lzss::insertHash(std::uint64_t pos)
{
    unsigned h = hashAt(pos);
    prev_[pos & (cfg_.window_bytes - 1)] = head_[h];
    head_[h] = pos;
}

BitVec
Lzss::encodeStream(const CacheLine &line)
{
    // Only a persistent window keeps hash chains; they are allocated
    // on its first line, so decoders and per-line instances never
    // carry them.
    const bool persistent = cfg_.persistent;
    if (persistent && head_.empty()) {
        head_.assign(std::size_t{1} << kHashBits, kNone);
        prev_.assign(cfg_.window_bytes, kNone);
    }
    const std::uint64_t start = trim_base_ + history_.size();
    const std::uint64_t end = start + kLineBytes;
    history_.insert(history_.end(), line.data(),
                    line.data() + kLineBytes);

    BitWriter bw;
    std::uint64_t pos = start;
    while (pos < end) {
        unsigned best_len = 0;
        std::uint64_t best_dist = 0;
        const unsigned lim = static_cast<unsigned>(
            std::min<std::uint64_t>(kMaxMatch, end - pos));

        auto consider = [&](std::uint64_t cand) {
            unsigned len = 0;
            while (len < lim && byteAt(cand + len) == byteAt(pos + len))
                ++len;
            if (len > best_len) {
                best_len = len;
                best_dist = pos - cand;
            }
        };

        if (lim >= kMinMatch && persistent) {
            // History candidates via the hash chains.
            unsigned h = hashAt(pos);
            std::uint64_t cand = head_[h];
            unsigned chain = 0;
            while (cand != kNone && cand < pos
                   && pos - cand <= cfg_.window_bytes
                   && cand >= trim_base_ && ++chain <= cfg_.max_chain) {
                consider(cand);
                if (best_len >= lim)
                    break;
                std::uint64_t next = prev_[cand & (cfg_.window_bytes - 1)];
                if (next == kNone || next >= cand)
                    break; // stale slot or end of chain
                cand = next;
            }
        } else if (lim >= kMinMatch) {
            // A per-line window holds only this line, so its matches
            // are found by brute force.
            for (std::uint64_t c = start; c < pos; ++c)
                consider(c);
        }

        if (best_len >= kMinMatch) {
            bw.put(1, 1);
            bw.put(best_dist, dist_bits_);
            bw.put(best_len - kMinMatch, 8);
            if (persistent) {
                for (std::uint64_t p = pos; p < pos + best_len; ++p)
                    if (p + kMinMatch <= end)
                        insertHash(p);
            }
            pos += best_len;
        } else {
            bw.put(0, 1);
            bw.put(byteAt(pos), 8);
            if (persistent && pos + kMinMatch <= end)
                insertHash(pos);
            ++pos;
        }
    }

    if (!persistent) {
        history_.resize(history_.size() - kLineBytes);
    } else if (history_.size() > 2 * cfg_.window_bytes) {
        std::size_t drop = history_.size() - cfg_.window_bytes;
        history_.erase(history_.begin(),
                       history_.begin() + static_cast<long>(drop));
        trim_base_ += drop;
    }
    return bw.take();
}

BitVec
Lzss::encodeWithRefs(const CacheLine &line, const RefList &refs,
                     unsigned dist_bits) const
{
    std::vector<std::uint8_t> buf;
    buf.reserve(refs.size() * kLineBytes + kLineBytes);
    for (const CacheLine *ref : refs)
        buf.insert(buf.end(), ref->data(), ref->data() + kLineBytes);
    const std::size_t base = buf.size();
    buf.insert(buf.end(), line.data(), line.data() + kLineBytes);

    BitWriter bw;
    std::size_t pos = base;
    while (pos < buf.size()) {
        unsigned best_len = 0;
        std::size_t best_dist = 0;
        unsigned lim = static_cast<unsigned>(
            std::min<std::size_t>(kMaxMatch, buf.size() - pos));
        for (std::size_t cand = 0; cand < pos; ++cand) {
            unsigned len = 0;
            while (len < lim && buf[cand + len] == buf[pos + len])
                ++len;
            if (len > best_len
                || (len == best_len && best_len > 0
                    && pos - cand < best_dist)) {
                best_len = len;
                best_dist = pos - cand;
            }
        }
        if (best_len >= kMinMatch) {
            bw.put(1, 1);
            bw.put(best_dist, dist_bits);
            bw.put(best_len - kMinMatch, 8);
            pos += best_len;
        } else {
            bw.put(0, 1);
            bw.put(buf[pos], 8);
            ++pos;
        }
    }
    return bw.take();
}

BitVec
Lzss::compress(const CacheLine &line, const RefList &refs)
{
    if (!refs.empty())
        return encodeWithRefs(line, refs, refDistBits(refs.size()));
    // Per-line mode rolls the window back after each line.
    return encodeStream(line);
}

DecodeResult
Lzss::decode(BitReader &br, const RefList &refs)
{
    if (!refs.empty()) {
        std::vector<std::uint8_t> ref_bytes;
        ref_bytes.reserve(refs.size() * kLineBytes);
        for (const CacheLine *ref : refs)
            ref_bytes.insert(ref_bytes.end(), ref->data(),
                             ref->data() + kLineBytes);
        return decodeAfter(br, ref_bytes, refDistBits(refs.size()));
    }
    const DecodeResult r = decodeAfter(br, dec_history_, dist_bits_);
    if (r.ok() && cfg_.persistent) {
        dec_history_.insert(dec_history_.end(), r.line.data(),
                            r.line.data() + kLineBytes);
        if (dec_history_.size() > 2 * cfg_.window_bytes) {
            std::size_t drop = dec_history_.size() - cfg_.window_bytes;
            dec_history_.erase(dec_history_.begin(),
                               dec_history_.begin()
                                   + static_cast<long>(drop));
        }
    }
    return r;
}

DecodeResult
Lzss::decodeAfter(BitReader &br, const std::vector<std::uint8_t> &prefix,
                  unsigned dist_bits)
{
    CacheLine line;
    const std::size_t plen = prefix.size();
    unsigned produced = 0;
    while (produced < kLineBytes) {
        if (!br.get(1)) {
            line.setByte(produced++, static_cast<std::uint8_t>(br.get(8)));
            continue;
        }
        const std::size_t dist = br.get(dist_bits);
        const unsigned len = static_cast<unsigned>(br.get(8)) + kMinMatch;
        if (produced + len > kLineBytes)
            return DecodeResult::fail(br, DecodeError::BadShape);
        if (dist == 0 || dist > plen + produced)
            return DecodeResult::fail(br, DecodeError::BadDistance);
        // A copy may overlap its own output (LZ run semantics).
        std::size_t from = plen + produced - dist;
        for (unsigned k = 0; k < len; ++k, ++from)
            line.setByte(produced++,
                         from < plen ? prefix[from]
                                     : line.byte(static_cast<unsigned>(
                                           from - plen)));
    }
    return DecodeResult::of(br, line);
}

void
Lzss::reset()
{
    history_.clear();
    dec_history_.clear();
    trim_base_ = 0;
    head_.clear();
    prev_.clear();
}

} // namespace cable
