#include "coherence/directory.hh"

namespace prism {

Directory::Directory(std::uint32_t cache_entries, Cycles hit_cycles,
                     Cycles miss_cycles)
    : hitCycles_(hit_cycles), missCycles_(miss_cycles),
      cacheTags_(cache_entries, ~0ULL)
{
    prism_assert((cache_entries & (cache_entries - 1)) == 0,
                 "directory cache entries must be a power of two");
}

Cycles
Directory::access(GLine gl)
{
    ++lookups_;
    const std::size_t idx = gl & (cacheTags_.size() - 1);
    if (cacheTags_[idx] == gl) {
        ++cacheHits_;
        return hitCycles_;
    }
    cacheTags_[idx] = gl;
    return missCycles_;
}

} // namespace prism
