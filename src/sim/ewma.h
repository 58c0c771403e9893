// Exponentially weighted moving average, as used by hostCC for its host
// congestion signals (§4.1: weight 1/8 for IIO occupancy, 1/256 for PCIe
// bandwidth) and by DCTCP for its alpha estimate (g = 1/16).
#pragma once

#include <cassert>

namespace hostcc::sim {

class Ewma {
 public:
  // `weight` is the coefficient of the newest sample, in (0, 1].
  explicit Ewma(double weight) : weight_(weight) {
    assert(weight > 0.0 && weight <= 1.0);
  }

  void add(double sample) {
    if (!seeded_) {
      value_ = sample;  // seed with the first observation
      seeded_ = true;
      return;
    }
    value_ += weight_ * (sample - value_);
  }

  double value() const { return value_; }
  bool seeded() const { return seeded_; }
  // Overwrites a seeded average's value; for callers that apply a run of
  // add() steps themselves, with the same arithmetic (bulk replays).
  void set_value(double v) {
    assert(seeded_);
    value_ = v;
  }
  double weight() const { return weight_; }

  void reset() {
    value_ = 0.0;
    seeded_ = false;
  }

 private:
  double weight_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace hostcc::sim
