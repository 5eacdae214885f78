// perfbench_calib — a fixed amount of reference work, timed by
// perfbench/run.py to measure how fast the host runs at the moment.
//
// It does not link libdlcirc, so no change to the program changes it. Its
// mix follows the one-shot compile: hashing with many small allocations
// (grounding), building adjacency lists (circuit construction), a dependent
// walk over a 2 MB table (gate lookups) and min-plus sweeps over
// value arrays (evaluation). run.py runs it as a child process right before
// every one-shot `dlcirc run` and reports that run's time as a ratio to it
// (see perfbench/README.md, "Steadiness").
//
// Prints one line: a checksum, which run.py checks.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

int main() {
  constexpr uint32_t kN = 1u << 15;
  constexpr uint32_t kTable = 1u << 19;  // 2 MB of uint32_t
  uint64_t s = 88172645463325252ull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  uint64_t acc = 0;

  std::unordered_map<uint64_t, uint32_t> index;
  for (uint32_t i = 0; i < kN; ++i) index[next() % (4 * kN)] = i;
  for (uint32_t i = 0; i < kN; ++i) {
    auto it = index.find(next() % (4 * kN));
    acc += it == index.end() ? 1 : it->second;
  }

  std::vector<std::vector<uint32_t>> adj(kN / 4);
  for (uint32_t i = 0; i < 2 * kN; ++i) adj[next() % adj.size()].push_back(i);
  for (const auto& row : adj) acc += row.size() * (row.empty() ? 1 : row.back());

  std::vector<uint32_t> perm(kTable);
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (uint32_t i = perm.size() - 1; i > 0; --i) std::swap(perm[i], perm[next() % (i + 1)]);
  uint32_t p = 0;
  for (uint32_t i = 0; i < 4 * kN; ++i) acc += p = perm[p];

  std::vector<double> a(4 * kN), b(4 * kN);  // 2 x 1 MB
  for (uint32_t i = 0; i < a.size(); ++i) {
    a[i] = perm[i] % 101;
    b[i] = perm[i] % 103;
  }
  for (int r = 0; r < 4; ++r)
    for (uint32_t i = 1; i < a.size(); ++i) a[i] = std::min(a[i], a[i - 1] + b[i]);
  acc += static_cast<uint64_t>(a.back());

  std::printf("%llu\n", static_cast<unsigned long long>(acc));
  return 0;
}
