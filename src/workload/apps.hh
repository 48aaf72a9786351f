/**
 * @file
 * Registry of the standard applications: the eight SPLASH-like
 * kernels (paper Table 2) plus the partitioned KV store (kvstore.hh).
 */

#ifndef PRISM_WORKLOAD_APPS_HH
#define PRISM_WORKLOAD_APPS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/table.hh"
#include "workload/workload.hh"

namespace prism {

/** Problem-size scale. */
enum class AppScale {
    Paper, //!< the paper's Table 2 data sets (LU scaled to 256^2)
    Small, //!< fast sizes for tests and smoke runs
    Tiny,  //!< minimal sizes for unit tests
};

template <>
inline constexpr std::array kNames<AppScale> = {"paper", "small", "tiny"};
static_assert(namedThrough(AppScale::Tiny));

/** A registered application. */
struct AppSpec {
    std::string name;
    std::function<std::unique_ptr<Workload>()> make;
};

/** All standard applications at the given scale (Table 2 order,
 *  then KV). */
std::vector<AppSpec> standardApps(AppScale scale);

/** One application by name (fatal if unknown). */
std::unique_ptr<Workload> makeApp(const std::string &name, AppScale scale);

} // namespace prism

#endif // PRISM_WORKLOAD_APPS_HH
