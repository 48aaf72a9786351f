/**
 * @file
 * Frontend selection: where a run's reference stream comes from.
 *
 *   exec    execute the workload coroutines (the default)
 *   record  execute, and additionally capture the calibration run's
 *           stream to a .ptrace file
 *   replay  skip workload execution entirely and re-issue a recorded
 *           stream through the simulator
 *
 * See docs/TRACE.md for the determinism contract and the
 * record-once / sweep-many recipe.
 */

#ifndef PRISM_FRONTEND_FRONTEND_HH
#define PRISM_FRONTEND_FRONTEND_HH

#include <string>

#include "core/table.hh"

namespace prism {

enum class FrontendKind { Exec, Record, Replay };

template <>
inline constexpr std::array kNames<FrontendKind> = {"exec", "record",
                                                    "replay"};
static_assert(namedThrough(FrontendKind::Replay));

/**
 * The .ptrace path for @p app under a bench's --trace-file argument
 * @p base.  With a single selected app the base is used verbatim;
 * with several, each app gets its own file: a trailing '/' appends
 * "<app>.ptrace", a ".ptrace" suffix becomes ".<app>.ptrace", and
 * anything else gets ".<app>.ptrace" appended.
 */
std::string tracePathFor(const std::string &base,
                         const std::string &app, std::size_t num_apps);

/**
 * Claim @p path for a recording of @p app.  When two apps in one
 * sweep derive the same .ptrace path (e.g. a verbatim --trace-file
 * with more than one recording, or app names that collapse to one
 * derived filename), the second recording would silently clobber the
 * first — that is fatal here, with both app names in the message.
 * Re-claiming a path for the *same* app is fine (policy cells of one
 * sweep share the calibration recording).  Thread-safe;
 * process-lifetime state, cleared by resetTracePathClaims().
 */
void claimTracePath(const std::string &path, const std::string &app);

/** Forget every recorded-path claim (test isolation only). */
void resetTracePathClaims();

} // namespace prism

#endif // PRISM_FRONTEND_FRONTEND_HH
