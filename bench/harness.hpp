// The paper's published tables (aware/paper.hpp) under the `bench::`
// names perfbench/ reads. This shim goes once perfbench includes
// aware/paper.hpp directly.
#pragma once

#include "aware/paper.hpp"

namespace peerscope::bench {

using aware::kPaperTable2;
using aware::kPaperTable3;
using aware::kPaperTable4;

}  // namespace peerscope::bench
