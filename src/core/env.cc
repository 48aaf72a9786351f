#include "core/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace prism {

namespace {

// clang-format off
const EnvKnob kKnobs[] = {
    {"PRISM_SCALE", "--scale", "paper|small|tiny", "paper",
     "application problem-size preset"},
    {"PRISM_APPS", "--apps", "comma-separated name substrings", "all nine",
     "application filter (e.g. Water selects both Water variants)"},
    {"PRISM_JOBS", "--jobs", "N >= 1", "hardware threads",
     "worker threads for the parallel sweep runner"},
    {"PRISM_JOBS_INTRA", "--jobs-intra", "N >= 1", "1",
     "event-loop shards inside each simulation"},
    {"PRISM_MACHINE", "--machine", "paper|<nodes>x<procs>", "paper",
     "machine-size preset (e.g. 128x8 = 1024 processors)"},
    {"PRISM_PROTOCOL", "--protocol", "msi|mesi|moesi|mesif", "mesi",
     "intra-node line protocol (docs/PROTOCOL.md)"},
    {"PRISM_FRONTEND", "--frontend", "exec|record|replay", "exec",
     "reference-stream frontend (docs/TRACE.md)"},
    {"PRISM_TRACE_FILE", "--trace-file", "path[.ptrace]", "unset",
     "trace file for --frontend=record/replay"},
    {"PRISM_ORACLE", nullptr, "off|quiescent|continuous", "off",
     "runtime protocol-invariant checker (forces sequential)"},
    {"PRISM_TRACE", nullptr, "path", "unset",
     "Chrome trace-event sink (forces sequential)"},
    {"PRISM_TRACE_GPAGE", nullptr, "hex global page number", "unset",
     "message-log filter: only this global page"},
    {"PRISM_TRACE_LI", nullptr, "line index", "unset",
     "message-log filter: only this line index"},
    {"PRISM_KV_KEYS", "--kv-keys", "N >= 1", "scale preset",
     "(kv) initial keyspace size for the KV workload"},
    {"PRISM_KV_REQUESTS", "--kv-requests", "N >= 1", "scale preset",
     "(kv) total open-loop requests per KV run"},
    {"PRISM_KV_THETA", "--kv-theta", "0 <= x < 1 (0 = uniform)", "sweep",
     "(kv) Zipfian skew of the key-popularity distribution"},
    {"PRISM_KV_MIX", "--kv-mix", "a|b|c|d|e", "sweep",
     "(kv) restrict kv_sweep to one YCSB-style mix"},
    {"PRISM_PROPERTY_SEED", nullptr, "N", "per-suite",
     "(tests) seed for property/fuzz suites"},
    {"PRISM_FUZZ_PROTOCOL", nullptr, "msi|mesi|moesi|mesif", "sweep",
     "(tests) pin the fuzzer to one line protocol"},
    {"PRISM_UPDATE_GOLDEN", nullptr, "any value", "unset",
     "(tests) regenerate committed golden files"},
};
// clang-format on

constexpr std::size_t kNumKnobs = sizeof(kKnobs) / sizeof(kKnobs[0]);

} // namespace

const EnvKnob *
envKnobs(std::size_t *count)
{
    *count = kNumKnobs;
    return kKnobs;
}

const EnvKnob *
findEnvKnob(const char *env)
{
    for (const EnvKnob &k : kKnobs) {
        if (!std::strcmp(k.env, env))
            return &k;
    }
    return nullptr;
}

const EnvKnob *
findEnvKnobByFlag(const char *flag)
{
    for (const EnvKnob &k : kKnobs) {
        if (k.flag && !std::strcmp(k.flag, flag))
            return &k;
    }
    return nullptr;
}

std::string
knobLabel(const char *knob)
{
    const EnvKnob *k = findEnvKnob(knob);
    if (!k || !k->flag)
        return knob;
    return std::string(k->env) + "/" + k->flag;
}

const char *
resolveEnv(const char *env)
{
    if (!findEnvKnob(env)) {
        panic("environment variable '%s' is not in the PRISM knob "
              "registry (core/env.cc); register it so --help and the "
              "flag > env > default rule stay complete",
              env);
    }
    return std::getenv(env);
}

std::uint64_t
parseKnobU64(const char *what, const char *s, std::uint64_t def,
             std::uint64_t min_value, std::uint64_t max_value, int base)
{
    if (!s)
        return def;
    const char *kind =
        base == 16 ? "a hexadecimal integer" : "an unsigned integer";
    // strtoull silently wraps negatives ("-5" parses as 2^64-5) and
    // skips leading whitespace; insist on a bare digit string so both
    // shapes fail fast with the knob name instead of truncating.
    if (!(base == 16 ? std::isxdigit(static_cast<unsigned char>(s[0]))
                     : std::isdigit(static_cast<unsigned char>(s[0]))))
        fatal("%s must be %s (got '%s')", what, kind, s);
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, base);
    if (end == s || *end != '\0')
        fatal("%s must be %s (got '%s')", what, kind, s);
    if (errno == ERANGE || v > max_value)
        fatal("%s out of range: '%s' exceeds %llu", what, s,
              static_cast<unsigned long long>(max_value));
    if (v < min_value)
        fatal("%s must be >= %llu (got '%s')", what,
              static_cast<unsigned long long>(min_value), s);
    return v;
}

double
parseKnobReal(const char *what, const char *s, double def, double lo,
              double hi)
{
    if (!s)
        return def;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
        fatal("%s must be a finite decimal (got '%s')", what, s);
    if (errno == ERANGE || v < lo || v > hi)
        fatal("%s must be in [%g, %g] (got '%s')", what, lo, hi, s);
    return v;
}

std::string
envHelpTable()
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-18s %-13s %-34s %s\n",
                  "environment", "flag", "values", "default");
    out += line;
    for (const EnvKnob &k : kKnobs) {
        std::snprintf(line, sizeof(line), "  %-18s %-13s %-34s %s\n",
                      k.env, k.flag ? k.flag : "-", k.values, k.def);
        out += line;
        std::snprintf(line, sizeof(line), "  %-18s   %s\n", "", k.help);
        out += line;
    }
    return out;
}

} // namespace prism
