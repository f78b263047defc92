#include "resilience/retry_policy.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fxcpp::resilience {

namespace {

// splitmix64 — the standard seeding mixer; here it turns (seed, id, k) into
// a uniform jitter draw without any shared RNG state, which is what makes
// backoff_seconds a pure (reproducible) function.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::string RetryStats::to_json() const {
  std::ostringstream os;
  os << "{\"retries\": " << retries << ", \"budget_denied\": " << budget_denied
     << ", \"deadline_denied\": " << deadline_denied << "}";
  return os.str();
}

RetryPolicy::RetryPolicy(RetryOptions opts) : opts_(opts) {
  if (opts_.max_attempts < 1) opts_.max_attempts = 1;
  opts_.budget_fraction = std::max(0.0, opts_.budget_fraction);
  opts_.budget_cap = std::max(1.0, opts_.budget_cap);
  if (opts_.base_backoff_seconds < 0.0) opts_.base_backoff_seconds = 0.0;
  opts_.max_backoff_seconds =
      std::max(opts_.max_backoff_seconds, opts_.base_backoff_seconds);
  opts_.jitter = std::clamp(opts_.jitter, 0.0, 1.0);
}

bool RetryPolicy::retryable(ErrorCode c) {
  switch (c) {
    case ErrorCode::NodeFailure:
    case ErrorCode::AllocLimit:
    case ErrorCode::NumericAnomaly:
    case ErrorCode::Unknown:
      return true;
    case ErrorCode::ArityMismatch:     // input error: identical on any engine
    case ErrorCode::GuardViolation:    // input error
    case ErrorCode::Cancelled:         // the caller gave up
    case ErrorCode::DeadlineExceeded:  // no time left by definition
    case ErrorCode::AdmissionRejected: // shed — resubmission is the client's
    case ErrorCode::CircuitOpen:       // call, not the session's
      return false;
  }
  return false;
}

double RetryPolicy::backoff_seconds(std::uint64_t id, int retry_index) const {
  if (retry_index < 1) retry_index = 1;
  double step = opts_.base_backoff_seconds *
                std::pow(2.0, static_cast<double>(retry_index - 1));
  step = std::min(step, opts_.max_backoff_seconds);
  if (opts_.jitter <= 0.0 || step <= 0.0) return step;
  const std::uint64_t h =
      mix64(mix64(opts_.seed ^ id) + static_cast<std::uint64_t>(retry_index));
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
  return step * (1.0 - opts_.jitter / 2.0 + opts_.jitter * u);
}

void RetryPolicy::on_admitted() {
  if (!opts_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = std::min(opts_.budget_cap, budget_ + opts_.budget_fraction);
}

bool RetryPolicy::acquire(ErrorCode code, int next_attempt,
                          double remaining_deadline_seconds, std::uint64_t id,
                          double* backoff_out) {
  if (!opts_.enabled || next_attempt > opts_.max_attempts || !retryable(code)) {
    return false;
  }
  const double backoff = backoff_seconds(id, next_attempt - 1);
  std::lock_guard<std::mutex> lock(mu_);
  if (remaining_deadline_seconds >= 0.0 &&
      backoff >= remaining_deadline_seconds) {
    ++stats_.deadline_denied;
    return false;
  }
  if (budget_ < 1.0) {
    ++stats_.budget_denied;
    return false;
  }
  budget_ -= 1.0;
  ++stats_.retries;
  if (backoff_out) *backoff_out = backoff;
  return true;
}

RetryStats RetryPolicy::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fxcpp::resilience
