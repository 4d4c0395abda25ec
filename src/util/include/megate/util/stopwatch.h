#pragma once
// Wall-clock stopwatch for the TE runtime measurements (Fig. 9 bench).

#include <chrono>

namespace megate::util {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace megate::util
