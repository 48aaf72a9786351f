/**
 * @file
 * Command-line front end for the random-schedule protocol explorer.
 *
 * Fuzzes the coherence protocol with seeded network jitter and random
 * page-mode flips under the continuous oracle; on failure, shrinks to
 * the minimal failing op budget and prints a deterministic replay id.
 *
 *   protocol_fuzz [--seed N] [--ops N] [--rounds N] [--policy NAME]
 *                 [--protocol NAME] [--jitter N]
 *                 [--mutate-skip-invals N] [--replay SEED:LEN]
 *
 * `--replay 42:17` reruns exactly the case a failing fuzz round
 * printed (seed 42, op budget 17) and dumps its violations.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "check/explorer.hh"
#include "core/env.hh"
#include "policy/page_policy.hh"

using namespace prism;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--ops N] [--rounds N] "
                 "[--policy NAME] [--protocol NAME]\n"
                 "          [--jitter N] [--mutate-skip-invals N] "
                 "[--replay SEED:LEN]\n",
                 argv0);
    return 2;
}

/**
 * Flag @p flag's value @p v as an E.  An unknown name is a usage error:
 * it names the flag and every valid value, and exits 2.
 */
template <typename E>
E
parseFlag(const char *flag, const char *v)
{
    E e{};
    if (!enumFromString(v, &e)) {
        std::fprintf(stderr, "fatal: %s\n",
                     unknownKnobValue<E>(flag, v).c_str());
        std::exit(2);
    }
    return e;
}

void
dumpViolations(const FuzzResult &r)
{
    for (const auto &v : r.violations) {
        std::printf("  t=%" PRIu64 " gpage=%" PRIx64 " li=%u  %s\n",
                    static_cast<std::uint64_t>(v.tick), v.gpage,
                    v.lineIdx, v.what.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opt;
    std::uint32_t rounds = 16;
    const char *replay = nullptr;

    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (const char *v = want("--seed")) {
            opt.seed = parseKnobU64("--seed", v, 0, 0);
        } else if (const char *v = want("--ops")) {
            opt.totalOps = static_cast<std::uint32_t>(
                parseKnobU64("--ops", v, 0, 1, ~0U));
        } else if (const char *v = want("--rounds")) {
            rounds = static_cast<std::uint32_t>(
                parseKnobU64("--rounds", v, 0, 1, ~0U));
        } else if (const char *v = want("--policy")) {
            opt.policy = parseFlag<PolicyKind>("--policy", v);
        } else if (const char *v = want("--protocol")) {
            opt.protocol = parseFlag<ProtocolScheme>("PRISM_PROTOCOL", v);
        } else if (const char *v = want("--jitter")) {
            opt.jitterMax = static_cast<std::uint32_t>(
                parseKnobU64("--jitter", v, 0, 0, ~0U));
        } else if (const char *v = want("--mutate-skip-invals")) {
            opt.mutationSkipInvals = static_cast<std::uint32_t>(
                parseKnobU64("--mutate-skip-invals", v, 0, 0, ~0U));
        } else if (const char *v = want("--replay")) {
            replay = v;
        } else {
            return usage(argv[0]);
        }
    }

    if (replay) {
        std::uint32_t len = 0;
        if (!parseReplayId(replay, &opt.seed, &len)) {
            std::fprintf(stderr, "bad replay id '%s' (want SEED:LEN)\n",
                         replay);
            return 2;
        }
        std::printf("replaying seed %" PRIu64 ", %u ops\n", opt.seed,
                    len);
        FuzzResult r = runFuzzCase(opt, len);
        std::printf("%" PRIu64 " violation(s), %" PRIu64 " checks\n",
                    r.violationCount, r.checksRun);
        dumpViolations(r);
        return r.failed ? 1 : 0;
    }

    std::uint32_t failures = 0;
    for (std::uint32_t i = 0; i < rounds; ++i, ++opt.seed) {
        FuzzResult r = runFuzzCase(opt, opt.totalOps);
        std::printf("seed %-6" PRIu64 " %s  (%" PRIu64
                    " checks)\n",
                    opt.seed, r.failed ? "FAIL" : "ok  ", r.checksRun);
        if (!r.failed)
            continue;
        ++failures;
        ShrinkResult s = shrinkFailure(opt);
        std::printf("  first violation: %s\n", s.firstViolation.c_str());
        std::printf("  shrunk to %u ops; rerun with --replay %s\n",
                    s.minOps, s.replay.c_str());
    }
    std::printf("%u/%u rounds failed\n", failures, rounds);
    return failures ? 1 : 0;
}
