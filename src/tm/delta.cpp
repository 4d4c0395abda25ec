#include "megate/tm/delta.h"

#include <cstring>

#include "megate/util/rng.h"

namespace megate::tm {

PairFingerprint fingerprint_flows(const std::vector<EndpointDemand>& flows) {
  PairFingerprint fp;
  fp.num_flows = flows.size();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const EndpointDemand& f : flows) {
    std::uint64_t bits;
    std::memcpy(&bits, &f.demand_gbps, sizeof(bits));
    h = (h ^ util::mix64(bits ^ static_cast<std::uint64_t>(f.qos))) *
        0x100000001B3ULL;
    fp.total_gbps += f.demand_gbps;
  }
  fp.hash = h;
  return fp;
}

}  // namespace megate::tm
