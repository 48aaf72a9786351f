#include "policy/page_policy.hh"

namespace prism {

const char *
policyName(PolicyKind k)
{
    return enumName(k);
}

} // namespace prism
