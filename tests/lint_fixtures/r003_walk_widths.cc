// Fixture: checkpoint-walk widths. The walk's rw(value, WIDTH) call
// writes or reads a field by the side that runs it, so a bare
// literal width must trip R003 exactly like put(); named constants
// and expressions must not.

#include <cstdint>

struct BodyWriter
{
    template <class T> void rw(const T &v, unsigned nbits);
};

inline constexpr unsigned kCountBits = 64;

template <class IO>
void
walk(IO &io, std::uint64_t &clock, std::uint32_t &set, unsigned ways)
{
    io.rw(clock, kCountBits);      // named width: clean
    io.rw(set, ways + 1);          // expression width: clean
    io.rw(set, 32);                // expect: R003
}
