/**
 * @file
 * Chunked slot arena with generation-checked handles.
 *
 * Slots live in fixed-size chunks that are built once and never move,
 * so a pointer into the arena stays valid for the arena's lifetime.
 * What a slot holds can change, though: its owner frees it and hands
 * it to a new occupant.  Each slot therefore carries a generation
 * counter (kept in the chunk beside the slot, as stable as the slot
 * itself), and the owner bumps it whenever the occupant leaves.  A Ref
 * remembers the generation it was issued at and checks it on every
 * access with an always-on prism_assert: a handle held across a
 * co_await after its occupant left panics by name instead of reading
 * a reset or reused slot, which no sanitizer would flag.
 *
 * It is the simulator's one arena-and-handle idiom: page records
 * (coherence/page_record.hh, each home page's directory included) and
 * PIT entries live here.  T names the occupant in the panic through a
 * `static constexpr const char *kHandleKind`.
 */

#ifndef PRISM_SIM_SLOT_ARENA_HH
#define PRISM_SIM_SLOT_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace prism {

template <typename T>
class SlotArena
{
  public:
    /** Slots per chunk; chunks never move once built. */
    static constexpr std::uint32_t kChunk = 256;

    /** Borrowed, generation-checked handle to one slot's occupant. */
    class Ref
    {
      public:
        Ref() = default;

        /** True if the handle names a slot (it may be stale). */
        explicit operator bool() const { return slot_ != nullptr; }

        T *
        operator->() const
        {
            check();
            return slot_;
        }

        T &
        operator*() const
        {
            check();
            return *slot_;
        }

        /** Index of the slot in its arena. */
        std::uint32_t index() const { return index_; }

      private:
        friend class SlotArena;

        Ref(T *slot, const std::uint32_t *gen, std::uint32_t index)
            : slot_(slot), gen_(gen), genAtIssue_(*gen), index_(index)
        {
        }

        void
        check() const
        {
            prism_assert(slot_ != nullptr, "use of an empty %s handle",
                         T::kHandleKind);
            prism_assert(*gen_ == genAtIssue_,
                         "stale %s handle: its occupant left the slot "
                         "(held across a removal or a reuse)",
                         T::kHandleKind);
        }

        T *slot_ = nullptr;
        const std::uint32_t *gen_ = nullptr;
        std::uint32_t genAtIssue_ = 0;
        std::uint32_t index_ = 0;
    };

    /** @param make builds a slot's idle occupant as its chunk is built. */
    explicit SlotArena(std::function<T()> make = [] { return T(); })
        : make_(std::move(make))
    {
    }

    /** Slots built so far (a multiple of kChunk). */
    std::size_t
    capacity() const
    {
        return chunks_.size() * static_cast<std::size_t>(kChunk);
    }

    /** Build chunks until slot @p i exists. */
    void
    cover(std::size_t i)
    {
        while (i >= capacity()) {
            auto c = std::make_unique<Chunk>();
            c->items.reserve(kChunk);
            for (std::uint32_t j = 0; j < kChunk; ++j)
                c->items.push_back(make_());
            c->gen.assign(kChunk, 0);
            chunks_.push_back(std::move(c));
        }
    }

    /** Unchecked access to slot @p i (which must exist). */
    T &
    operator[](std::size_t i) const
    {
        return chunks_[i / kChunk]->items[i % kChunk];
    }

    /** Handle to slot @p i at its current generation. */
    Ref
    ref(std::size_t i) const
    {
        Chunk &c = *chunks_[i / kChunk];
        const std::size_t sub = i % kChunk;
        return Ref(&c.items[sub], &c.gen[sub],
                   static_cast<std::uint32_t>(i));
    }

    /** The occupant of slot @p i left: invalidate its handles. */
    void retire(std::size_t i) { ++chunks_[i / kChunk]->gen[i % kChunk]; }

  private:
    struct Chunk {
        std::vector<T> items;           //!< kChunk slots, never grown
        std::vector<std::uint32_t> gen; //!< one counter per slot
    };

    std::function<T()> make_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
};

} // namespace prism

#endif // PRISM_SIM_SLOT_ARENA_HH
