#include "common/line.h"

#include <cstdio>

namespace cable
{

std::string
CacheLine::toString() const
{
    std::string out;
    out.reserve(kLineBytes * 3);
    char buf[4];
    for (unsigned i = 0; i < kLineBytes; ++i) {
        std::snprintf(buf, sizeof(buf), "%02x", bytes_[i]);
        out += buf;
        if (i % 4 == 3 && i + 1 < kLineBytes)
            out += ' ';
    }
    return out;
}

} // namespace cable
