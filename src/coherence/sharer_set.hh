/**
 * @file
 * SharerSet: the set of nodes holding a copy of a cache line.
 *
 * The full-map directory, the kernel's per-page client lists, the PIT
 * capability lists and the protocol oracle all manipulate "a set of
 * nodes".  Historically each of them carried a raw `std::uint64_t`
 * bitmask — a hard 64-node ceiling with silent shift-UB beyond it.
 * SharerSet keeps the single-word representation as the inline fast
 * path (machines up to 64 nodes never allocate and compile to the
 * same and/or/popcount instructions as the raw mask did) and spills
 * to a pooled multi-word bitmap when a node id >= 64 is added.
 *
 * Iteration is exposed as first()/next() word-scan (ctz) rather than
 * a callback, because the big consumer — the home controller's
 * invalidation fan-out — must `co_await` between members and a lambda
 * cannot straddle a coroutine suspension point.  Iteration order is
 * ascending node id, matching the historical `for (n = 0; n < N; ++n)`
 * mask probe loops bit for bit.
 *
 * SharerRef is the same operation set over *borrowed* words — the
 * directory's SoA arena (directory.hh) stores each line's sharer words
 * packed in place and hands out SharerRef views, so the hot path never
 * touches the heap at any machine size.
 */

#ifndef PRISM_COHERENCE_SHARER_SET_HH
#define PRISM_COHERENCE_SHARER_SET_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace prism {

namespace sharer_words {

/** Pooled allocation of zeroed spill blocks (sharer_set.cc). */
std::uint64_t *alloc(std::uint32_t num_words);
void release(std::uint64_t *block, std::uint32_t num_words);

inline bool
test(const std::uint64_t *w, std::uint32_t nw, NodeId n)
{
    return n < nw * 64 && ((w[n >> 6] >> (n & 63)) & 1);
}

inline void
set(std::uint64_t *w, NodeId n)
{
    w[n >> 6] |= 1ULL << (n & 63);
}

inline void
reset(std::uint64_t *w, std::uint32_t nw, NodeId n)
{
    if (n < nw * 64)
        w[n >> 6] &= ~(1ULL << (n & 63));
}

inline bool
none(const std::uint64_t *w, std::uint32_t nw)
{
    for (std::uint32_t i = 0; i < nw; ++i) {
        if (w[i])
            return false;
    }
    return true;
}

inline std::uint32_t
count(const std::uint64_t *w, std::uint32_t nw)
{
    std::uint32_t c = 0;
    for (std::uint32_t i = 0; i < nw; ++i)
        c += static_cast<std::uint32_t>(__builtin_popcountll(w[i]));
    return c;
}

/** Lowest member with id >= @p from; kInvalidNode if none. */
inline NodeId
scan(const std::uint64_t *w, std::uint32_t nw, NodeId from)
{
    std::uint32_t wi = from >> 6;
    if (wi >= nw)
        return kInvalidNode;
    std::uint64_t cur = w[wi] & (~0ULL << (from & 63));
    for (;;) {
        if (cur) {
            return static_cast<NodeId>(
                (wi << 6) + __builtin_ctzll(cur));
        }
        if (++wi >= nw)
            return kInvalidNode;
        cur = w[wi];
    }
}

/** Hex rendering ("0x..", low word last); matches %#llx for nw==1. */
std::string toString(const std::uint64_t *w, std::uint32_t nw);

} // namespace sharer_words

/**
 * Non-owning view over a line's sharer words (fixed capacity).  The
 * directory's line view hands these out; mutators assert the id fits.
 */
class SharerRef
{
  public:
    SharerRef(std::uint64_t *words, std::uint32_t num_words)
        : w_(words), nw_(num_words)
    {
    }

    std::uint32_t capacity() const { return nw_ * 64; }
    const std::uint64_t *words() const { return w_; }
    std::uint32_t numWords() const { return nw_; }

    bool test(NodeId n) const { return sharer_words::test(w_, nw_, n); }
    void add(NodeId n) { sharer_words::set(w_, n); }
    void remove(NodeId n) { sharer_words::reset(w_, nw_, n); }

    void
    clear()
    {
        for (std::uint32_t i = 0; i < nw_; ++i)
            w_[i] = 0;
    }

    bool empty() const { return sharer_words::none(w_, nw_); }
    std::uint32_t count() const { return sharer_words::count(w_, nw_); }

    NodeId first() const { return sharer_words::scan(w_, nw_, 0); }

    NodeId
    next(NodeId after) const
    {
        return sharer_words::scan(w_, nw_, after + 1);
    }

    /** Word 0 — the full mask for <= 64 nodes (trace/log output). */
    std::uint64_t lowWord() const { return w_[0]; }

    std::string
    toString() const
    {
        return sharer_words::toString(w_, nw_);
    }

  private:
    std::uint64_t *w_;
    std::uint32_t nw_;
};

/**
 * Owning value-semantic node set.  One inline word; adding a node id
 * >= 64 spills every word to a pooled block (monotonic growth, sized
 * to the largest id seen).  Equality is zero-extended, so an inline
 * set and a spilled set with the same members compare equal.
 */
class SharerSet
{
  public:
    SharerSet() = default;

    SharerSet(const SharerSet &o) { copyFrom(o.words(), o.numWords()); }

    SharerSet(SharerSet &&o) noexcept
        : inline_(o.inline_), ext_(o.ext_), extWords_(o.extWords_)
    {
        o.ext_ = nullptr;
        o.extWords_ = 0;
        o.inline_ = 0;
    }

    SharerSet &
    operator=(const SharerSet &o)
    {
        if (this != &o) {
            releaseExt();
            copyFrom(o.words(), o.numWords());
        }
        return *this;
    }

    SharerSet &
    operator=(SharerSet &&o) noexcept
    {
        if (this != &o) {
            releaseExt();
            inline_ = o.inline_;
            ext_ = o.ext_;
            extWords_ = o.extWords_;
            o.ext_ = nullptr;
            o.extWords_ = 0;
            o.inline_ = 0;
        }
        return *this;
    }

    ~SharerSet() { releaseExt(); }

    /** Copy the members of a borrowed view (used by migration). */
    static SharerSet
    fromRef(const SharerRef &r)
    {
        SharerSet s;
        s.copyFrom(r.words(), r.numWords());
        return s;
    }

    bool
    test(NodeId n) const
    {
        return sharer_words::test(words(), numWords(), n);
    }

    void
    add(NodeId n)
    {
        if (n >= numWords() * 64)
            grow((n >> 6) + 1);
        sharer_words::set(words(), n);
    }

    void
    remove(NodeId n)
    {
        sharer_words::reset(words(), numWords(), n);
    }

    void
    clear()
    {
        std::uint64_t *w = words();
        for (std::uint32_t i = 0, e = numWords(); i < e; ++i)
            w[i] = 0;
    }

    bool empty() const { return sharer_words::none(words(), numWords()); }

    std::uint32_t
    count() const
    {
        return sharer_words::count(words(), numWords());
    }

    NodeId first() const { return sharer_words::scan(words(), numWords(), 0); }

    NodeId
    next(NodeId after) const
    {
        return sharer_words::scan(words(), numWords(), after + 1);
    }

    std::uint64_t lowWord() const { return words()[0]; }

    std::string
    toString() const
    {
        return sharer_words::toString(words(), numWords());
    }

    SharerRef ref() { return SharerRef(words(), numWords()); }

    bool
    operator==(const SharerSet &o) const
    {
        const std::uint64_t *a = words(), *b = o.words();
        const std::uint32_t na = numWords(), nb = o.numWords();
        for (std::uint32_t i = 0, e = na > nb ? na : nb; i < e; ++i) {
            const std::uint64_t wa = i < na ? a[i] : 0;
            const std::uint64_t wb = i < nb ? b[i] : 0;
            if (wa != wb)
                return false;
        }
        return true;
    }

    bool operator!=(const SharerSet &o) const { return !(*this == o); }

    /** True while the set has never spilled past one word. */
    bool isInline() const { return ext_ == nullptr; }

    const std::uint64_t *words() const { return ext_ ? ext_ : &inline_; }
    std::uint64_t *words() { return ext_ ? ext_ : &inline_; }
    std::uint32_t numWords() const { return ext_ ? extWords_ : 1; }

  private:
    void copyFrom(const std::uint64_t *w, std::uint32_t nw);
    void grow(std::uint32_t want_words);

    void
    releaseExt()
    {
        if (ext_) {
            sharer_words::release(ext_, extWords_);
            ext_ = nullptr;
            extWords_ = 0;
        }
    }

    std::uint64_t inline_ = 0;   //!< word 0 while not spilled
    std::uint64_t *ext_ = nullptr; //!< all words once spilled
    std::uint32_t extWords_ = 0;
};

} // namespace prism

#endif // PRISM_COHERENCE_SHARER_SET_HH
