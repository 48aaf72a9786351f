/**
 * @file
 * Open-addressing hash map keyed by a 64-bit id.
 *
 * The simulator's per-page and per-line tables (page records, client
 * transactions, fill tokens, home waits, the bus MSHR, each cache's
 * frame residency) are probed on every miss and churn an entry per
 * transaction.  A node-based std::unordered_map pays a heap
 * allocation per insert and a pointer chase per probe; this map keeps
 * its entries in one power-of-two array and allocates only when it
 * grows.
 *
 * - Linear probing from a Fibonacci hash of the key, so clustered ids
 *   (consecutive pages and lines) spread over the table.
 * - The key ~0 marks an empty slot and can never be stored: insert
 *   panics naming the map, find and count report it absent.  Every
 *   id kept here (GPage, GLine, a frame or a line's physical address)
 *   reserves ~0 as its invalid value.
 * - Erase shifts the following entries of the probe run back, so no
 *   tombstones build up and a find never scans past a deleted slot.
 * - The table grows (doubling) when it would pass half full.
 *
 * Insert and erase move entries: a pointer returned by find or insert
 * is valid only until the next insert or erase on the same map.
 * Iteration order is the table order, so it must decide nothing that
 * a simulation result depends on.
 */

#ifndef PRISM_SIM_FLAT_MAP_HH
#define PRISM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace prism {

/** Test access to a FlatMap's slot layout (tests/flat_map_test.cc). */
struct FlatMapProbe;

template <typename V>
class FlatMap
{
  public:
    /** The reserved empty-slot key. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    /** @p name appears in the panic for an insert of kEmptyKey. */
    explicit FlatMap(const char *name) : name_(name) { rehash(kMinSlots); }

    std::size_t size() const { return size_; }

    /** The value of @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        if (key == kEmptyKey)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** 1 if @p key is present, else 0. */
    std::size_t count(std::uint64_t key) const { return find(key) ? 1 : 0; }

    /**
     * Insert @p key with @p value unless present.
     * @return the stored value and whether it was inserted.
     */
    std::pair<V *, bool>
    insert(std::uint64_t key, V value = V())
    {
        prism_assert(key != kEmptyKey,
                     "%s: key %#llx is the empty-slot marker and cannot "
                     "be stored", name_,
                     static_cast<unsigned long long>(key));
        if (2 * (size_ + 1) > slots_.size())
            rehash(2 * slots_.size());
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return {&s.value, false};
            if (s.key == kEmptyKey)
                break;
        }
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
        return {&slots_[i].value, true};
    }

    /** The value of @p key, value-initialized if absent. */
    V &operator[](std::uint64_t key) { return *insert(key).first; }

    /** Remove @p key. @retval false if it was absent. */
    bool
    erase(std::uint64_t key)
    {
        if (key == kEmptyKey)
            return false;
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                break;
            if (slots_[i].key == kEmptyKey)
                return false;
        }
        // Backward shift: pull each later entry of the run into the
        // hole unless the hole lies outside its probe path, i.e. its
        // home falls cyclically in (hole, j].
        for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
            Slot &s = slots_[j];
            if (s.key == kEmptyKey)
                break;
            const std::size_t h = home(s.key);
            const bool stays = i <= j ? (i < h && h <= j)
                                      : (i < h || h <= j);
            if (stays)
                continue;
            slots_[i].key = s.key;
            slots_[i].value = std::move(s.value);
            i = j;
        }
        slots_[i].key = kEmptyKey;
        slots_[i].value = V();
        --size_;
        return true;
    }

    /** Call @p f(key, value) for every entry, in table order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kEmptyKey)
                f(s.key, s.value);
        }
    }

  private:
    friend struct FlatMapProbe;

    static constexpr std::size_t kMinSlots = 16;

    struct Slot {
        std::uint64_t key = kEmptyKey;
        V value = V();
    };

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(n, Slot());
        mask_ = n - 1;
        shift_ = 64;
        for (std::size_t m = n; m > 1; m >>= 1)
            --shift_;
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i].key = s.key;
            slots_[i].value = std::move(s.value);
        }
    }

    const char *name_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace prism

#endif // PRISM_SIM_FLAT_MAP_HH
