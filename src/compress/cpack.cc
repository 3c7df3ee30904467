#include "compress/cpack.h"

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

namespace
{

// Pattern code points.
constexpr unsigned kCodeZzzz = 0b00; // 2-bit prefix
constexpr unsigned kCodeXxxx = 0b01; // 2-bit prefix
constexpr unsigned kCodeMmmm = 0b10; // 2-bit prefix
constexpr unsigned kCodeMmxx = 0b1100;
constexpr unsigned kCodeZzzx = 0b1101;
constexpr unsigned kCodeMmmx = 0b1110;

} // namespace

void
Cpack::Dict::push(std::uint32_t w)
{
    if (capacity == 0)
        return;
    if (entries.size() < capacity) {
        entries.push_back(w);
    } else {
        entries[head] = w;
        head = (head + 1) % capacity;
    }
}

int
Cpack::Dict::bestMatch(std::uint32_t w, std::size_t &index) const
{
    int best = -1;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::uint32_t e = entries[i];
        int quality;
        if (e == w)
            quality = 2;
        else if ((e & 0xffffff00u) == (w & 0xffffff00u))
            quality = 1;
        else if ((e & 0xffff0000u) == (w & 0xffff0000u))
            quality = 0;
        else
            continue;
        if (quality > best) {
            best = quality;
            index = i;
            if (best == 2)
                break;
        }
    }
    return best;
}

Cpack::Cpack() : Cpack(Config{}) {}

Cpack::Cpack(const Config &cfg)
    : cfg_(cfg), idx_bits_(bitsToIndex(cfg.dict_entries)),
      enc_dict_(cfg.dict_entries), dec_dict_(cfg.dict_entries)
{
    if (cfg_.dict_entries == 0)
        fatal("Cpack: dictionary must have at least one entry");
}

std::string
Cpack::name() const
{
    std::string n = "cpack";
    if (cfg_.dict_entries != 16)
        n += std::to_string(cfg_.dict_entries * 4);
    return n;
}

Cpack::Dict
Cpack::makeSeededDict(const RefList &refs) const
{
    Dict d(cfg_.dict_entries);
    for (const CacheLine *ref : refs)
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            d.push(ref->word(w));
    return d;
}

BitVec
Cpack::encode(const CacheLine &line, Dict &dict) const
{
    BitWriter bw;
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        std::uint32_t w = line.word(i);
        if (w == 0) {
            bw.put(kCodeZzzz, 2);
            continue;
        }
        std::size_t index = 0;
        int quality = dict.bestMatch(w, index);
        if (quality == 2) {
            bw.put(kCodeMmmm, 2);
            bw.put(index, idx_bits_);
            continue;
        }
        // All remaining patterns insert the word into the dictionary.
        // Cheapest first: zzzx (12b) beats mmmx (12b + index).
        if ((w & 0xffffff00u) == 0) {
            bw.put(kCodeZzzx, 4);
            bw.put(w & 0xff, 8);
        } else if (quality == 1) {
            bw.put(kCodeMmmx, 4);
            bw.put(index, idx_bits_);
            bw.put(w & 0xff, 8);
        } else if (quality == 0) {
            bw.put(kCodeMmxx, 4);
            bw.put(index, idx_bits_);
            bw.put(w & 0xffff, 16);
        } else {
            bw.put(kCodeXxxx, 2);
            bw.put(w, 32);
        }
        dict.push(w);
    }
    return bw.take();
}

DecodeResult
Cpack::decodeWith(BitReader &br, Dict &dict) const
{
    CacheLine line;
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        unsigned code = static_cast<unsigned>(br.get(2));
        if (code == kCodeZzzz)
            continue; // line starts zeroed
        if (code == kCodeXxxx) {
            const auto w = static_cast<std::uint32_t>(br.get(32));
            line.setWord(i, w);
            dict.push(w);
            continue;
        }
        if (code != kCodeMmmm)
            code = (code << 2) | static_cast<unsigned>(br.get(2));
        if (code == kCodeZzzx) {
            const auto w = static_cast<std::uint32_t>(br.get(8));
            line.setWord(i, w);
            dict.push(w);
            continue;
        }
        if (code > kCodeMmmx)
            return DecodeResult::fail(br, DecodeError::BadOpcode);
        const std::size_t index = br.get(idx_bits_);
        if (index >= dict.size())
            return DecodeResult::fail(br, DecodeError::BadDistance);
        std::uint32_t w = dict.at(index);
        if (code == kCodeMmmm) {
            line.setWord(i, w);
            continue;
        }
        w = code == kCodeMmxx
                ? (w & 0xffff0000u) | static_cast<std::uint32_t>(br.get(16))
                : (w & 0xffffff00u) | static_cast<std::uint32_t>(br.get(8));
        line.setWord(i, w);
        dict.push(w);
    }
    return DecodeResult::of(br, line);
}

BitVec
Cpack::compress(const CacheLine &line, const RefList &refs)
{
    if (refs.empty() && cfg_.persistent)
        return encode(line, enc_dict_);
    Dict d = makeSeededDict(refs); // empty without refs
    return encode(line, d);
}

DecodeResult
Cpack::decode(BitReader &br, const RefList &refs)
{
    if (refs.empty() && cfg_.persistent)
        return decodeWith(br, dec_dict_);
    Dict d = makeSeededDict(refs);
    return decodeWith(br, d);
}

void
Cpack::reset()
{
    enc_dict_ = Dict(cfg_.dict_entries);
    dec_dict_ = Dict(cfg_.dict_entries);
}

} // namespace cable
