/**
 * @file
 * The one table idiom: enum names and protocol tables as constexpr
 * data.
 *
 * Names.  Every enum whose values are printed or parsed specialises
 * kNames<E> beside its declaration, with a std::array of names in
 * declaration order, or beside its rows table, with a reference to the
 * table whose rows carry a `name` (kPolicyRules, kMsgRules); a
 * static_assert there ties the length to the enum, and code that names
 * an E without that header does not compile.  enumName() prints a
 * value, enumFromString() parses one, and parseKnobEnum() parses a
 * knob's value, failing as
 *
 *   unknown PRISM_X/--x '<v>' (valid: a b c)
 *
 * with the knob's spellings taken from the env registry (core/env.hh).
 *
 * Cells.  A CellTable<View, Event, Cell> holds one Cell per (view,
 * event) pair, sized by the two enums' names.  A protocol builds its
 * table in a constexpr function of set() calls; every cell it does not
 * set stays illegal, so tryOn() returns nullptr and on() panics naming
 * it (`illegal <table> transition: <event> on <view>`).  The line,
 * home and client protocols are such tables, and an interpreter that
 * wants coverage counts its lookups in a CellTable::Hits.
 */

#ifndef PRISM_CORE_TABLE_HH
#define PRISM_CORE_TABLE_HH

#include <strings.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>

#include "core/env.hh"
#include "sim/logging.hh"

namespace prism {

/** The names of @p E's enumerators, in declaration order. */
template <typename E>
inline constexpr auto kNames = nullptr;

/** Parse @p E's names ignoring case (KvMix takes "a" and "A"). */
template <typename E>
inline constexpr bool kFoldCase = false;

/**
 * True if kNames<E> holds exactly one name per enumerator up to
 * @p last: the static_assert beside each specialisation.
 */
template <typename E>
constexpr bool
namedThrough(E last)
{
    return std::size(kNames<E>) == static_cast<std::size_t>(last) + 1;
}

/**
 * True if row i of @p rows is enumerator i of its @p key column: the
 * static_assert beside a rows table indexed by its enum.
 */
template <typename Row, std::size_t N, typename E>
constexpr bool
rowsInOrder(const Row (&rows)[N], E Row::*key)
{
    for (std::size_t i = 0; i < N; ++i) {
        if (static_cast<std::size_t>(rows[i].*key) != i)
            return false;
    }
    return true;
}

namespace detail {

/** A name table entry's name: the entry itself, or its row's name. */
template <typename T>
constexpr const char *
entryName(const T &entry)
{
    if constexpr (std::is_convertible_v<T, const char *>)
        return entry;
    else
        return entry.name;
}

} // namespace detail

/** @p e's name, or "?" for a value with none. */
template <typename E>
constexpr const char *
enumName(E e)
{
    const auto i = static_cast<std::size_t>(e);
    return i < std::size(kNames<E>) ? detail::entryName(kNames<E>[i])
                                    : "?";
}

/**
 * Parse an enumerator's name as enumName() writes it.
 * @retval false @p s names none (@p out is untouched).
 */
template <typename E>
bool
enumFromString(const char *s, E *out)
{
    if (!s || !out)
        return false;
    for (std::size_t i = 0; i < std::size(kNames<E>); ++i) {
        const char *name = detail::entryName(kNames<E>[i]);
        if (kFoldCase<E> ? !strcasecmp(s, name) : !std::strcmp(s, name)) {
            *out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/**
 * The error for knob @p knob's unknown value @p v:
 * "unknown <knob> '<v>' (valid: <every name of E>)", the knob spelt
 * as knobLabel() spells it.
 */
template <typename E>
std::string
unknownKnobValue(const char *knob, const char *v)
{
    std::string msg = "unknown " + knobLabel(knob) + " '" + v + "' (valid:";
    for (const auto &entry : kNames<E>)
        (msg += ' ') += detail::entryName(entry);
    return msg + ")";
}

/** Knob @p knob's value @p v as an E; fatal if it names none. */
template <typename E>
E
parseKnobEnum(const char *knob, const char *v)
{
    E e{};
    if (!enumFromString(v, &e))
        fatal("%s", unknownKnobValue<E>(knob, v).c_str());
    return e;
}

/**
 * A protocol table: one Cell per (View, Event) pair.  A Cell carries a
 * `legal` flag, which set() raises; the builder's unset cells stay
 * illegal.
 */
template <typename View, typename Event, typename Cell>
struct CellTable {
    static constexpr std::size_t kViews = std::size(kNames<View>);
    static constexpr std::size_t kEvents = std::size(kNames<Event>);

    /**
     * Lookups per cell, counted by an interpreter (on() with hits) for
     * table coverage; kept outside the metric tables.
     */
    struct Hits {
        std::uint64_t n[kViews][kEvents] = {};

        std::uint64_t
        operator()(View v, Event e) const
        {
            return n[static_cast<std::size_t>(v)]
                    [static_cast<std::size_t>(e)];
        }
    };

    const char *name; //!< the table's name in an illegal-cell panic
    Cell cells[kViews][kEvents] = {};

    /** Define cell (v, e) as @p c, legal. */
    constexpr void
    set(View v, Event e, Cell c)
    {
        c.legal = true;
        cells[static_cast<std::size_t>(v)][static_cast<std::size_t>(e)] =
            c;
    }

    /** The cell for (v, e), or nullptr if it is illegal. */
    constexpr const Cell *
    tryOn(View v, Event e) const
    {
        const Cell &c =
            cells[static_cast<std::size_t>(v)][static_cast<std::size_t>(e)];
        return c.legal ? &c : nullptr;
    }

    /** The cell for (v, e); panics naming it if it is illegal. */
    const Cell &
    on(View v, Event e) const
    {
        const Cell &c =
            cells[static_cast<std::size_t>(v)][static_cast<std::size_t>(e)];
        if (!c.legal) [[unlikely]]
            illegal(v, e);
        return c;
    }

    /** on(), counting the lookup in @p hits. */
    const Cell &
    on(View v, Event e, Hits &hits) const
    {
        ++hits.n[static_cast<std::size_t>(v)][static_cast<std::size_t>(e)];
        return on(v, e);
    }

  private:
    [[noreturn]] void
    illegal(View v, Event e) const
    {
        panic("illegal %s transition: %s on %s", name, enumName(e),
              enumName(v));
    }
};

} // namespace prism

#endif // PRISM_CORE_TABLE_HH
