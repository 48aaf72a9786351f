#include "core/config.hh"

#include <cstdio>
#include <cstring>

#include "mem/addr.hh"
#include "policy/page_policy.hh"
#include "sim/logging.hh"

namespace prism {

namespace {

/**
 * The rules SetAssocCache asserts, stated up front with the field
 * names: 1..255 ways (its recency order is a byte per way) and a
 * nonzero power-of-two set count.  @p line_bytes is already valid.
 */
void
checkCacheGeometry(const char *bytes_field, std::uint32_t bytes,
                   const char *assoc_field, std::uint32_t assoc,
                   std::uint32_t line_bytes)
{
    if (assoc < 1 || assoc > 255)
        fatal("%s must be in 1..255 (got %u)", assoc_field, assoc);
    const std::uint64_t sets =
        bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
    if (sets == 0 || (sets & (sets - 1)) != 0) {
        fatal("%s=%u gives %llu sets (%s=%u, lineBytes=%u); the set "
              "count must be a nonzero power of two",
              bytes_field, bytes, static_cast<unsigned long long>(sets),
              assoc_field, assoc, line_bytes);
    }
}

} // namespace

void
validateConfig(const MachineConfig &cfg)
{
    if (cfg.numNodes < 1 || cfg.numNodes > kMaxNodes) {
        fatal("numNodes=%u out of range: the machine supports 1..%u "
              "nodes (kMaxNodes, core/config.hh)",
              cfg.numNodes, kMaxNodes);
    }
    if (cfg.procsPerNode < 1) {
        fatal("procsPerNode must be >= 1 (got %u)", cfg.procsPerNode);
    }
    if (cfg.numProcs() > kMaxProcs) {
        fatal("numNodes*procsPerNode=%u exceeds the %u-processor "
              "ceiling (kMaxProcs, core/config.hh)",
              cfg.numProcs(), kMaxProcs);
    }
    if (cfg.dirCacheEntries == 0 ||
        (cfg.dirCacheEntries & (cfg.dirCacheEntries - 1)) != 0) {
        fatal("dirCacheEntries must be a nonzero power of two (got %u)",
              cfg.dirCacheEntries);
    }
    if (cfg.lineBytes == 0 || (cfg.lineBytes & (cfg.lineBytes - 1))) {
        fatal("lineBytes must be a nonzero power of two (got %u)",
              cfg.lineBytes);
    }
    if (cfg.lineBytes > kPageBytes) {
        fatal("lineBytes=%u exceeds the %llu-byte page", cfg.lineBytes,
              static_cast<unsigned long long>(kPageBytes));
    }
    checkCacheGeometry("l1Bytes", cfg.l1Bytes, "l1Assoc", cfg.l1Assoc,
                       cfg.lineBytes);
    checkCacheGeometry("l2Bytes", cfg.l2Bytes, "l2Assoc", cfg.l2Assoc,
                       cfg.lineBytes);
    if (cfg.tlbEntries < 1)
        fatal("tlbEntries must be >= 1 (got %u)", cfg.tlbEntries);
    if (cfg.retryDelay == 0) {
        fatal("retryDelay must be >= 1 (got 0): a zero backoff never "
              "suspends, so a retry loop on a contended line spins "
              "forever inside one event");
    }
    if (!cfg.clientFrameCapPerNode.empty() &&
        cfg.clientFrameCapPerNode.size() != cfg.numNodes) {
        fatal("clientFrameCapPerNode has %zu entries but numNodes=%u: "
              "give one cap per node, or none",
              cfg.clientFrameCapPerNode.size(), cfg.numNodes);
    }
    if (!policyKnown(cfg.policy)) {
        fatal("policy=%u has no row in kPolicyRules "
              "(policy/page_policy.hh): valid values are 0..%zu",
              static_cast<unsigned>(cfg.policy),
              std::size(kPolicyRules) - 1);
    }
}

bool
machineFromString(const char *s, MachineConfig *cfg)
{
    if (!s || !cfg)
        return false;
    if (!std::strcmp(s, "paper")) {
        cfg->numNodes = 8;
        cfg->procsPerNode = 4;
        return true;
    }
    unsigned nodes = 0, procs = 0;
    char trail = 0;
    if (std::sscanf(s, "%ux%u%c", &nodes, &procs, &trail) != 2 ||
        nodes == 0 || procs == 0) {
        return false;
    }
    cfg->numNodes = nodes;
    cfg->procsPerNode = procs;
    return true;
}

std::vector<MachineConfig>
machinePresets(const MachineConfig &base)
{
    std::vector<MachineConfig> out;
    for (const char *shape : {"8x4", "16x4", "32x8", "128x8"}) {
        MachineConfig c = base;
        machineFromString(shape, &c);
        out.push_back(c);
    }
    return out;
}

} // namespace prism
