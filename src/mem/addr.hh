/**
 * @file
 * Address spaces and geometry.
 *
 * PRISM distinguishes three address spaces (paper Fig. 6):
 *  - virtual addresses   (VSID, page number, offset) — per process,
 *  - physical addresses  (frame number, offset)      — private per node,
 *  - global addresses    (GSID, page number, offset) — system-wide names
 *    for shared data; they do NOT encode the home node's location.
 *
 * Pages are fixed at 4 KB as in the paper.  Cache-line size is a
 * machine configuration parameter (default 64 bytes).
 */

#ifndef PRISM_MEM_ADDR_HH
#define PRISM_MEM_ADDR_HH

#include <cstdint>

#include "sim/types.hh"

namespace prism {

/** log2 of the page size; PRISM fixes 4 KB pages like the paper. */
constexpr std::uint32_t kPageShift = 12;
/** Page size in bytes. */
constexpr std::uint64_t kPageBytes = 1ULL << kPageShift;

/** Bits of the page-number field inside virtual/global addresses. */
constexpr std::uint32_t kPageNumBits = 24;
/** Bit position where the segment identifier (VSID/GSID) begins. */
constexpr std::uint32_t kSegShift = kPageShift + kPageNumBits;

/** Identifier of a virtual page (VSID and page number combined). */
using VPage = std::uint64_t;
/** Identifier of a global page (GSID and page number combined). */
using GPage = std::uint64_t;
/** Identifier of a global cache line (GPage and line index combined). */
using GLine = std::uint64_t;

/** Sentinel global page. */
constexpr GPage kInvalidGPage = ~0ULL;

/**
 * Static home of a global page: round-robin across @p num_nodes.  The
 * static home anchors the page's registry entry wherever the page's
 * dynamic home moves (Section 3.5).
 */
constexpr NodeId
staticHomeOf(GPage gp, std::uint32_t num_nodes)
{
    return static_cast<NodeId>(gp % num_nodes);
}

/**
 * First frame number of the imaginary (LA-NUMA) range.  Real frames
 * are numbered from 0 below it; imaginary frames back no memory.
 */
constexpr FrameNum kImaginaryFrameBase = 1ULL << 24;

/** A virtual address: (VSID, page number, offset). */
struct VAddr {
    std::uint64_t raw = 0;

    constexpr VPage page() const { return raw >> kPageShift; }
    constexpr std::uint64_t offset() const { return raw & (kPageBytes - 1); }
    constexpr std::uint64_t vsid() const { return raw >> kSegShift; }

    constexpr auto operator<=>(const VAddr &) const = default;
};

/** A global address: (GSID, page number, offset). */
struct GAddr {
    std::uint64_t raw = 0;

    constexpr GPage page() const { return raw >> kPageShift; }
    constexpr std::uint64_t offset() const { return raw & (kPageBytes - 1); }
    constexpr std::uint64_t gsid() const { return raw >> kSegShift; }

    constexpr auto operator<=>(const GAddr &) const = default;
};

/** A node-private physical address: (frame number, offset). */
struct PAddr {
    std::uint64_t raw = 0;

    constexpr FrameNum frame() const { return raw >> kPageShift; }
    constexpr std::uint64_t offset() const { return raw & (kPageBytes - 1); }

    constexpr auto operator<=>(const PAddr &) const = default;
};

/** Compose a virtual address from its fields. */
constexpr VAddr
makeVAddr(std::uint64_t vsid, std::uint64_t page_num, std::uint64_t offset)
{
    return VAddr{(vsid << kSegShift) | (page_num << kPageShift) | offset};
}

/** Compose a global address from its fields. */
constexpr GAddr
makeGAddr(std::uint64_t gsid, std::uint64_t page_num, std::uint64_t offset)
{
    return GAddr{(gsid << kSegShift) | (page_num << kPageShift) | offset};
}

/** Compose a physical address from frame and offset. */
constexpr PAddr
makePAddr(FrameNum frame, std::uint64_t offset)
{
    return PAddr{(frame << kPageShift) | offset};
}

/** Geometry helper for the configurable cache-line size. */
class LineGeometry
{
  public:
    explicit LineGeometry(std::uint32_t line_bytes)
        : lineBytes_(line_bytes), lineShift_(log2i(line_bytes)),
          linesPerPage_(static_cast<std::uint32_t>(kPageBytes) / line_bytes)
    {
    }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t lineShift() const { return lineShift_; }
    std::uint32_t linesPerPage() const { return linesPerPage_; }

    /** Index of the line containing @p offset within its page. */
    std::uint32_t
    lineIndex(std::uint64_t offset) const
    {
        return static_cast<std::uint32_t>((offset & (kPageBytes - 1)) >>
                                          lineShift_);
    }

    /** Global line id for @p ga. */
    GLine
    lineOf(GAddr ga) const
    {
        return ga.raw >> lineShift_;
    }

    /** Global line id from a page and a line index. */
    GLine
    lineOf(GPage gp, std::uint32_t line_idx) const
    {
        return (gp << (kPageShift - lineShift_)) | line_idx;
    }

    /** Page containing global line @p gl. */
    GPage
    pageOf(GLine gl) const
    {
        return gl >> (kPageShift - lineShift_);
    }

    /** Line index of global line @p gl within its page. */
    std::uint32_t
    indexOf(GLine gl) const
    {
        return static_cast<std::uint32_t>(gl & (linesPerPage_ - 1));
    }

    static constexpr std::uint32_t
    log2i(std::uint64_t v)
    {
        std::uint32_t r = 0;
        while ((1ULL << r) < v)
            ++r;
        return r;
    }

  private:
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    std::uint32_t linesPerPage_;
};

} // namespace prism

#endif // PRISM_MEM_ADDR_HH
