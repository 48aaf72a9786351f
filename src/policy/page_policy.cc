#include "policy/page_policy.hh"

#include "os/kernel.hh"
#include "sim/logging.hh"

namespace prism {

CoTask
ScomaPolicy::chooseClientMode(Kernel &, GPage, PageMode *out)
{
    *out = PageMode::Scoma;
    co_return;
}

CoTask
LaNumaPolicy::chooseClientMode(Kernel &k, GPage, PageMode *out)
{
    *out = k.config().ccNumaBypass ? PageMode::CcNuma : PageMode::LaNuma;
    co_return;
}

CoTask
Scoma70Policy::chooseClientMode(Kernel &k, GPage, PageMode *out)
{
    // Page out LRU client pages until below the cap; the freed frame
    // backs the faulting page.  No mode conversion in this policy.
    while (k.clientCacheFull()) {
        GPage victim = k.lruClientPage();
        if (victim == kInvalidGPage)
            break; // every candidate busy; admit over cap
        co_await k.pageOutClient(victim, false);
    }
    *out = PageMode::Scoma;
}

CoTask
DynFcfsPolicy::chooseClientMode(Kernel &k, GPage gp, PageMode *out)
{
    // Sticky: once mapped LA-NUMA the page stays LA-NUMA at this node.
    if (k.modeOverride(gp) == PageMode::LaNuma) {
        *out = PageMode::LaNuma;
        co_return;
    }
    if (k.clientCacheFull()) {
        k.setModeOverride(gp, PageMode::LaNuma);
        *out = PageMode::LaNuma;
        co_return;
    }
    *out = PageMode::Scoma;
}

CoTask
DynUtilPolicy::chooseClientMode(Kernel &k, GPage gp, PageMode *out)
{
    if (k.modeOverride(gp) == PageMode::LaNuma) {
        *out = PageMode::LaNuma;
        co_return;
    }
    while (k.clientCacheFull()) {
        // The client frame with the most Invalid fine-grain tags
        // (lightly used / communication data).
        const GPage victim = k.mostInvalidClientPage();
        if (victim == kInvalidGPage || k.pageBusy(victim)) {
            // No convertible frame right now: fall back to LA-NUMA for
            // the faulting page.
            k.setModeOverride(gp, PageMode::LaNuma);
            *out = PageMode::LaNuma;
            co_return;
        }
        co_await k.pageOutClient(victim, true);
    }
    *out = PageMode::Scoma;
}

CoTask
DynLruPolicy::chooseClientMode(Kernel &k, GPage gp, PageMode *out)
{
    if (k.modeOverride(gp) == PageMode::LaNuma) {
        *out = PageMode::LaNuma;
        co_return;
    }
    while (k.clientCacheFull()) {
        GPage victim = k.lruClientPage();
        if (victim == kInvalidGPage) {
            k.setModeOverride(gp, PageMode::LaNuma);
            *out = PageMode::LaNuma;
            co_return;
        }
        co_await k.pageOutClient(victim, true);
    }
    *out = PageMode::Scoma;
}

CoTask
DynBothPolicy::chooseClientMode(Kernel &k, GPage gp, PageMode *out)
{
    // Revert heavily refetched LA-NUMA pages back to S-COMA
    // (amortized scan at fault time).
    co_await k.reconsiderLaNumaPages(refetchThreshold_, 4);

    if (k.modeOverride(gp) == PageMode::LaNuma) {
        *out = PageMode::LaNuma;
        co_return;
    }
    while (k.clientCacheFull()) {
        GPage victim = k.lruClientPage();
        if (victim == kInvalidGPage) {
            k.setModeOverride(gp, PageMode::LaNuma);
            *out = PageMode::LaNuma;
            co_return;
        }
        co_await k.pageOutClient(victim, true);
    }
    *out = PageMode::Scoma;
}

std::unique_ptr<PagePolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Scoma:
        return std::make_unique<ScomaPolicy>();
      case PolicyKind::LaNuma:
        return std::make_unique<LaNumaPolicy>();
      case PolicyKind::Scoma70:
        return std::make_unique<Scoma70Policy>();
      case PolicyKind::DynFcfs:
        return std::make_unique<DynFcfsPolicy>();
      case PolicyKind::DynUtil:
        return std::make_unique<DynUtilPolicy>();
      case PolicyKind::DynLru:
        return std::make_unique<DynLruPolicy>();
      case PolicyKind::DynBoth:
        return std::make_unique<DynBothPolicy>();
    }
    panic("unknown policy kind");
}

} // namespace prism
