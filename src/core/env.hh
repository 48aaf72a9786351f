/**
 * @file
 * The PRISM_* environment-knob registry.
 *
 * Every environment variable the simulator, benches or tests consult
 * is declared once in the table returned by envKnobs(); resolveEnv()
 * is the only sanctioned way to read one.  Reading an unregistered
 * name panics, so a knob cannot be added without also appearing in
 * the generated `--help` table (envHelpTable()) and the precedence
 * rule (flag > env > default) that BenchOptions implements on top of
 * this registry.
 */

#ifndef PRISM_CORE_ENV_HH
#define PRISM_CORE_ENV_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace prism {

/** One registered PRISM_* knob. */
struct EnvKnob {
    const char *env;    //!< environment variable name
    const char *flag;   //!< CLI flag spelling, nullptr if env-only
    const char *values; //!< accepted values, human-readable
    const char *def;    //!< default, human-readable
    const char *help;   //!< one-line description
};

/** The registry: every PRISM_* variable the code base reads. */
const EnvKnob *envKnobs(std::size_t *count);

/** Registry entry for @p env, or nullptr. */
const EnvKnob *findEnvKnob(const char *env);

/** Registry entry whose CLI flag is @p flag, or nullptr. */
const EnvKnob *findEnvKnobByFlag(const char *flag);

/**
 * How an error names knob @p knob: "PRISM_X/--x" for a registered knob
 * with a flag, "PRISM_X" for an env-only one, and @p knob itself for a
 * name the registry lacks (a tool's own flag, e.g. "--policy").
 */
std::string knobLabel(const char *knob);

/**
 * getenv() restricted to registered knobs: panics when @p env is not
 * in the registry (the variable would otherwise silently bypass the
 * --help table and the flag > env > default precedence rule).
 */
const char *resolveEnv(const char *env);

/** The generated knob table for `--help` (env, flag, values, default). */
std::string envHelpTable();

/**
 * Strict unsigned parse for a knob value: the whole of @p s must be an
 * integer in [@p min_value, @p max_value], written in @p base (10, or
 * 16 with an optional "0x").  Trailing garbage ("4x"), a sign ("-3",
 * "+4"), overflow, and out-of-range values are all fatal, naming the
 * knob via @p what.  Null @p s returns @p def.
 */
std::uint64_t parseKnobU64(const char *what, const char *s,
                           std::uint64_t def, std::uint64_t min_value,
                           std::uint64_t max_value = ~0ULL,
                           int base = 10);

/**
 * Strict floating-point parse for a knob value: the whole of @p s
 * must be a finite decimal in [@p lo, @p hi]; anything else is fatal,
 * naming the knob via @p what.  Null @p s returns @p def.
 */
double parseKnobReal(const char *what, const char *s, double def,
                     double lo, double hi);

} // namespace prism

#endif // PRISM_CORE_ENV_HH
