#include "util/rng.hpp"

namespace tgroom {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro requires a nonzero state; splitmix64 of anything is nonzero with
  // overwhelming probability, but guard the degenerate case anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  if (bound <= 1) return 0;
  while (true) {
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound || low >= (-bound) % bound) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TGROOM_CHECK_MSG(lo <= hi, "uniform_int: empty range");
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  std::uint64_t draw = (span == 0) ? (*this)() : below(span);
  return lo + static_cast<std::int64_t>(draw);
}

double Rng::uniform01() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

Rng Rng::split() noexcept {
  Rng child(0);
  child.s_ = {(*this)(), (*this)(), (*this)(), (*this)()};
  if ((child.s_[0] | child.s_[1] | child.s_[2] | child.s_[3]) == 0)
    child.s_[0] = 1;
  return child;
}

}  // namespace tgroom
