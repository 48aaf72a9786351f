#include "policy/page_policy.hh"

#include <cstring>

namespace prism {

const char *
policyName(PolicyKind k)
{
    return policyKnown(k) ? policyRule(k).name : "?";
}

bool
policyFromString(const char *s, PolicyKind *out)
{
    if (!s || !out)
        return false;
    for (const PolicyRule &r : kPolicyRules) {
        if (!std::strcmp(s, r.name)) {
            *out = r.kind;
            return true;
        }
    }
    return false;
}

} // namespace prism
