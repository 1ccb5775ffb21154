#include "state.hpp"

int sum(const State& s) {
  int total = 0;
  for (const auto& [k, v] : s.table_) total += v;
  for (int x : s.list_) total += x;
  for (int m : s.members()) total += m;
  for (const auto& [k, v] : s.table_) total += v;  // peerscope-lint: allow(nondeterministic-iteration)
  // peerscope-lint: allow(nondeterministic-iteration)
  for (const auto& [k, v] : s.table_) total += v;
  // a comment naming `for (auto& x : table_)` must not fire
  return total;
}
