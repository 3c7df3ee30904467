#include "core/frame.h"

namespace cable
{

namespace
{

/** Walk side that emits a frame: every field goes out as it stands
 *  and every check passes. */
struct FrameWriter
{
    BitWriter &bw;

    template <class T>
    void
    rw(const T &v, unsigned nbits)
    {
        bw.put(static_cast<std::uint64_t>(v), nbits);
    }

    void check(bool, FrameError) {}
};

/**
 * Walk side that parses a frame. Reads past the payload end return
 * zeros and set the reader's overrun flag, which outranks any check
 * that the zeros then trip: the first failed check is kept.
 */
struct FrameReader
{
    BitReader &br;
    FrameError error = FrameError::None;

    template <class T>
    void
    rw(T &v, unsigned nbits)
    {
        v = static_cast<T>(br.get(nbits));
    }

    void
    check(bool ok, FrameError e)
    {
        if (!ok && error == FrameError::None)
            error = e;
    }

    FrameError
    result() const
    {
        return br.overrun() ? FrameError::Truncated : error;
    }
};

template <class IO>
void
walkFlag(IO &io, bool &compressed)
{
    io.rw(compressed, kWireFlagBits);
}

/** The header layout, defined once: writers and the reader run it. */
template <class IO>
void
walkHeader(IO &io, FrameHeader &h, const RlidFormat &fmt)
{
    walkFlag(io, h.compressed);
    if (!h.compressed)
        return;
    io.rw(h.nrefs, kWireNRefsBits);
    for (unsigned i = 0; i < h.nrefs; ++i) {
        LineID &rlid = h.refs[i];
        io.rw(rlid.set, fmt.set_bits);
        io.rw(rlid.way, fmt.way_bits);
        rlid.valid = true;
        io.check(rlid.set < fmt.sets && rlid.way < fmt.ways,
                 FrameError::BadRemoteLid);
    }
}

/** The payload of a raw frame, byte by byte; @p Line is const for the
 *  writer. */
template <class IO, class Line>
void
walkLine(IO &io, Line &line)
{
    for (unsigned i = 0; i < kLineBytes; ++i)
        io.rw(line.data()[i], kBitsPerByte);
}

} // namespace

void
putFrameHeader(BitWriter &bw, FrameHeader h, const RlidFormat &fmt)
{
    FrameWriter w{bw};
    walkHeader(w, h, fmt);
}

FrameError
getFrameHeader(BitReader &br, FrameHeader &h, const RlidFormat &fmt)
{
    FrameReader r{br};
    walkHeader(r, h, fmt);
    return r.result();
}

void
putFrameFlag(BitWriter &bw, bool compressed)
{
    FrameWriter w{bw};
    walkFlag(w, compressed);
}

void
putLine(BitWriter &bw, const CacheLine &line)
{
    FrameWriter w{bw};
    walkLine(w, line);
}

CacheLine
getLine(BitReader &br)
{
    CacheLine line;
    FrameReader r{br};
    walkLine(r, line);
    return line;
}

void
putRawFrame(BitWriter &bw, const CacheLine &line)
{
    putFrameFlag(bw, false);
    putLine(bw, line);
}

} // namespace cable
