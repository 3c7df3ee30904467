#include "compress/factory.h"

#include "common/log.h"
#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/fpc.h"
#include "compress/lbe.h"
#include "compress/lzss.h"
#include "compress/oracle.h"
#include "compress/zero_run.h"

namespace cable
{

namespace
{

/** One row per engine, in compressorNames() order: makeCompressor
 *  and compressorNames read the same table. */
const struct
{
    const char *name;
    CompressorPtr (*make)();
} kEngines[] = {
    {"zero", [] { return CompressorPtr(std::make_unique<ZeroRun>()); }},
    {"bdi", [] { return CompressorPtr(std::make_unique<Bdi>()); }},
    {"fpc", [] { return CompressorPtr(std::make_unique<Fpc>()); }},
    {"cpack", [] { return CompressorPtr(std::make_unique<Cpack>()); }},
    {"cpack128",
     [] {
         Cpack::Config cfg;
         cfg.dict_entries = 32;
         cfg.persistent = true;
         return CompressorPtr(std::make_unique<Cpack>(cfg));
     }},
    {"lbe256",
     [] {
         Lbe::Config cfg;
         cfg.dict_bytes = 256;
         cfg.persistent = true;
         return CompressorPtr(std::make_unique<Lbe>(cfg));
     }},
    {"gzip", [] { return CompressorPtr(std::make_unique<Lzss>()); }},
    {"lzss",
     [] {
         Lzss::Config cfg;
         cfg.persistent = false;
         return CompressorPtr(std::make_unique<Lzss>(cfg));
     }},
    {"oracle", [] { return CompressorPtr(std::make_unique<Oracle>()); }},
};

} // namespace

CompressorPtr
makeCompressor(const std::string &name)
{
    for (const auto &e : kEngines)
        if (name == e.name)
            return e.make();
    fatal("unknown compressor '%s'", name.c_str());
}

std::vector<std::string>
compressorNames()
{
    std::vector<std::string> names;
    for (const auto &e : kEngines)
        names.push_back(e.name);
    return names;
}

} // namespace cable
