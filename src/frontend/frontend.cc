#include "frontend/frontend.hh"

#include <mutex>
#include <unordered_map>

#include "sim/logging.hh"

namespace prism {

std::string
tracePathFor(const std::string &base, const std::string &app,
             std::size_t num_apps)
{
    if (base.empty())
        return base; // callers report the missing --trace-file
    if (num_apps <= 1 && base.back() != '/')
        return base;
    if (!base.empty() && base.back() == '/')
        return base + app + ".ptrace";
    const std::string suffix = ".ptrace";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        return base.substr(0, base.size() - suffix.size()) + "." + app +
               suffix;
    }
    return base + "." + app + suffix;
}

namespace {

std::mutex &
claimMutex()
{
    static std::mutex m;
    return m;
}

std::unordered_map<std::string, std::string> &
claimMap()
{
    static std::unordered_map<std::string, std::string> claims;
    return claims;
}

} // namespace

void
claimTracePath(const std::string &path, const std::string &app)
{
    std::lock_guard<std::mutex> lk(claimMutex());
    auto [it, inserted] = claimMap().emplace(path, app);
    if (!inserted && it->second != app) {
        fatal("trace path collision: '%s' and '%s' both derive "
              "'%s' for --trace-file; the second recording would "
              "clobber the first (use a trailing '/' or a .ptrace "
              "pattern so each app gets its own file)",
              it->second.c_str(), app.c_str(), path.c_str());
    }
}

void
resetTracePathClaims()
{
    std::lock_guard<std::mutex> lk(claimMutex());
    claimMap().clear();
}

} // namespace prism
