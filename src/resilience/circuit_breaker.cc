#include "resilience/circuit_breaker.h"

#include <algorithm>
#include <sstream>

namespace fxcpp::resilience {

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

std::string BreakerStats::to_json() const {
  std::ostringstream os;
  os << "{\"state\": \"" << breaker_state_name(state)
     << "\", \"admitted\": " << admitted << ", \"rejected\": " << rejected
     << ", \"probes\": " << probes << ", \"trips\": " << trips
     << ", \"reopens\": " << reopens << ", \"closes\": " << closes << "}";
  return os.str();
}

CircuitBreaker::CircuitBreaker(BreakerOptions opts)
    : opts_(opts), rng_(opts.seed) {
  if (opts_.window == 0) opts_.window = 1;
  if (opts_.min_samples == 0) opts_.min_samples = 1;
  if (opts_.consecutive_failures < 1) opts_.consecutive_failures = 1;
  if (opts_.cooldown_rejections < 1) opts_.cooldown_rejections = 1;
  if (opts_.half_open_probes < 1) opts_.half_open_probes = 1;
  opts_.probes_to_close =
      std::clamp(opts_.probes_to_close, 1, opts_.half_open_probes);
  ring_.assign(opts_.window, 0);
}

BreakerDecision CircuitBreaker::on_request() {
  if (!opts_.enabled) return BreakerDecision::Admit;
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::Closed:
      ++stats_.admitted;
      return BreakerDecision::Admit;
    case BreakerState::Open:
      ++stats_.rejected;
      if (--open_rejections_left_ <= 0) {
        // Cooldown served: the next caller(s) become half-open probes.
        state_ = BreakerState::HalfOpen;
        probes_outstanding_ = 0;
        probe_successes_ = 0;
      }
      return BreakerDecision::Reject;
    case BreakerState::HalfOpen:
      if (probes_outstanding_ < opts_.half_open_probes) {
        ++probes_outstanding_;
        ++stats_.probes;
        return BreakerDecision::Probe;
      }
      ++stats_.rejected;
      return BreakerDecision::Reject;
  }
  ++stats_.admitted;
  return BreakerDecision::Admit;
}

void CircuitBreaker::on_no_run(bool probe) {
  if (!opts_.enabled || !probe) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::HalfOpen) {
    probes_outstanding_ = std::max(0, probes_outstanding_ - 1);
  }
}

void CircuitBreaker::on_outcome(bool ok, bool probe) {
  if (!opts_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (probe) {
    if (state_ != BreakerState::HalfOpen) return;  // stale probe (reset)
    probes_outstanding_ = std::max(0, probes_outstanding_ - 1);
    if (!ok) {
      ++stats_.reopens;
      trip_locked();
      return;
    }
    if (++probe_successes_ >= opts_.probes_to_close) {
      ++stats_.closes;
      close_locked();
    }
    return;
  }
  if (state_ != BreakerState::Closed) {
    // A non-probe run resolving after a trip (e.g. a batch that was already
    // in flight when the breaker opened): its outcome is stale policy-wise.
    return;
  }
  // Slide the window.
  if (ring_count_ == ring_.size()) {
    ring_failures_ -= ring_[ring_pos_];
  } else {
    ++ring_count_;
  }
  ring_[ring_pos_] = ok ? 0 : 1;
  ring_failures_ += ring_[ring_pos_];
  ring_pos_ = (ring_pos_ + 1) % ring_.size();
  consecutive_failures_ = ok ? 0 : consecutive_failures_ + 1;

  const bool streak_trip = consecutive_failures_ >= opts_.consecutive_failures;
  const bool rate_trip =
      ring_count_ >= opts_.min_samples &&
      static_cast<double>(ring_failures_) >=
          opts_.error_rate * static_cast<double>(ring_count_);
  if (streak_trip || rate_trip) {
    ++stats_.trips;
    trip_locked();
  }
}

void CircuitBreaker::trip_locked() {
  state_ = BreakerState::Open;
  open_rejections_left_ =
      opts_.cooldown_rejections +
      (opts_.cooldown_jitter > 0
           ? static_cast<int>(rng_.randint(0, opts_.cooldown_jitter))
           : 0);
  probes_outstanding_ = 0;
  probe_successes_ = 0;
}

void CircuitBreaker::close_locked() {
  state_ = BreakerState::Closed;
  std::fill(ring_.begin(), ring_.end(), 0);
  ring_pos_ = 0;
  ring_count_ = 0;
  ring_failures_ = 0;
  consecutive_failures_ = 0;
  probes_outstanding_ = 0;
  probe_successes_ = 0;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

BreakerStats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BreakerStats s = stats_;
  s.state = state_;
  return s;
}

void CircuitBreaker::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  close_locked();
}

}  // namespace fxcpp::resilience
