#include "dram/timing.hpp"

namespace simra::dram {

TimingParams TimingParams::ddr4_2666() {
  TimingParams t;
  t.tCK = Nanoseconds{0.75};
  return t;
}

TimingParams TimingParams::ddr4_2133() {
  TimingParams t;
  t.tRCD = Nanoseconds{14.06};
  t.tRP = Nanoseconds{14.06};
  t.tRAS = Nanoseconds{33.0};
  t.tFAW = Nanoseconds{25.0};
  t.tCK = Nanoseconds{0.9375};
  return t;
}

TimingParams TimingParams::ddr4_3200() {
  TimingParams t;
  t.tRCD = Nanoseconds{13.75};
  t.tRP = Nanoseconds{13.75};
  t.tRAS = Nanoseconds{32.0};
  t.tCK = Nanoseconds{0.625};
  return t;
}

}  // namespace simra::dram
