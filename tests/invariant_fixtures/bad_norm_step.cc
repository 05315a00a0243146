// xqinvariant positive fixture for XQI006 — NEVER compiled, never linked.
// A hand-written query-step translation: the shape of the four copies of
// PathStep-to-NormStep conversion that xquery/ast.cc's AppendNormStep
// replaced. A fifth copy anywhere else must fire.

#include <vector>

#include "xpath/pattern.h"
#include "xquery/ast.h"

namespace fixture {

bool AppendChildStep(const xqdb::PathStep& step,
                     std::vector<xqdb::NormStep>* steps) {
  steps->push_back(xqdb::NormStep{false, xqdb::ElementTest(step.test.name)});
  return true;  // XQI006 above: NormStep built off the converter
}

}  // namespace fixture
