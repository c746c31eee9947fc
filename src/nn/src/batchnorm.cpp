#include "axnn/nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace axnn::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor(Shape{channels}, 1.0f)),
      beta_(Tensor(Shape{channels}, 0.0f)),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels must be positive");
}

std::string BatchNorm2d::name() const { return "bn_" + std::to_string(channels_); }

namespace {

/// y = gamma * xhat + beta with xhat = (x - mean) * invstd per channel — the
/// arithmetic forward and infer share. Stores xhat too when `xhat` is set
/// (forward's backward cache).
void normalize(const Tensor& x, const float* mean, const float* invstd, const Tensor& gamma,
               const Tensor& beta, Tensor& y, float* xhat) {
  const int64_t n = x.shape()[0], ch = x.shape()[1], hw = x.shape()[2] * x.shape()[3];
  for (int64_t b = 0; b < n; ++b)
    for (int64_t c = 0; c < ch; ++c) {
      const float mu = mean[c], is = invstd[c];
      const float g = gamma[c], be = beta[c];
      const int64_t off = (b * ch + c) * hw;
      const float* px = x.data() + off;
      float* py = y.data() + off;
      float* ph = xhat != nullptr ? xhat + off : nullptr;
      for (int64_t i = 0; i < hw; ++i) {
        const float h = (px[i] - mu) * is;
        if (ph != nullptr) ph[i] = h;
        py[i] = g * h + be;
      }
    }
}

}  // namespace

void BatchNorm2d::check_input(const Tensor& x) const {
  if (x.shape().rank() != 4 || x.shape()[1] != channels_)
    throw std::invalid_argument("BatchNorm2d::forward: bad input shape");
}

Tensor BatchNorm2d::running_invstd() const {
  Tensor is(Shape{channels_});
  for (int64_t c = 0; c < channels_; ++c) is[c] = 1.0f / std::sqrt(running_var_[c] + eps_);
  return is;
}

Tensor BatchNorm2d::infer(const Tensor& x, const ExecContext& ctx) const {
  require_inference_context(*this, ctx);
  check_input(x);
  const Tensor invstd = running_invstd();
  Tensor y(x.shape());
  normalize(x, running_mean_.data(), invstd.data(), gamma_.value, beta_.value, y, nullptr);
  return y;
}

Tensor BatchNorm2d::forward(const Tensor& x, const ExecContext& ctx) {
  check_input(x);
  const int64_t n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  const int64_t m = n * h * w;  // samples per channel
  const int64_t hw = h * w;

  cached_training_ = ctx.training;
  cached_x_ = x;

  if (ctx.training) {
    cached_mean_ = Tensor(Shape{channels_});
    cached_invstd_ = Tensor(Shape{channels_});
    for (int64_t c = 0; c < channels_; ++c) {
      double mean = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) mean += p[i];
      }
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          const double d = p[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(m);
      cached_mean_[c] = static_cast<float>(mean);
      cached_invstd_[c] = static_cast<float>(1.0 / std::sqrt(var + eps_));
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);
    }
  } else {
    cached_mean_ = running_mean_;
    cached_invstd_ = running_invstd();
  }

  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  normalize(x, cached_mean_.data(), cached_invstd_.data(), gamma_.value, beta_.value, y,
            cached_xhat_.data());
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
  if (dy.shape() != cached_x_.shape())
    throw std::invalid_argument("BatchNorm2d::backward: dy shape mismatch");
  const int64_t n = dy.shape()[0], h = dy.shape()[2], w = dy.shape()[3];
  const int64_t hw = h * w;
  const int64_t m = n * hw;

  Tensor dx(dy.shape());
  for (int64_t c = 0; c < channels_; ++c) {
    const float g = gamma_.value[c], is = cached_invstd_[c];
    // Accumulate dgamma/dbeta and the train-mode correction sums.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int64_t b = 0; b < n; ++b) {
      const float* pdy = dy.data() + (b * channels_ + c) * hw;
      const float* ph = cached_xhat_.data() + (b * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        sum_dy += pdy[i];
        sum_dy_xhat += static_cast<double>(pdy[i]) * ph[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    if (cached_training_) {
      const double inv_m = 1.0 / static_cast<double>(m);
      for (int64_t b = 0; b < n; ++b) {
        const float* pdy = dy.data() + (b * channels_ + c) * hw;
        const float* ph = cached_xhat_.data() + (b * channels_ + c) * hw;
        float* pdx = dx.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          const double t = static_cast<double>(pdy[i]) - inv_m * sum_dy -
                           inv_m * sum_dy_xhat * ph[i];
          pdx[i] = static_cast<float>(g * is * t);
        }
      }
    } else {
      for (int64_t b = 0; b < n; ++b) {
        const float* pdy = dy.data() + (b * channels_ + c) * hw;
        float* pdx = dx.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) pdx[i] = g * is * pdy[i];
      }
    }
  }
  return dx;
}

void BatchNorm2d::fold_into(Conv2d& conv) const {
  if (conv.config().out_channels != channels_)
    throw std::invalid_argument("fold_into: channel mismatch");
  std::vector<float> scale(static_cast<size_t>(channels_));
  std::vector<float> shift(static_cast<size_t>(channels_));
  const Tensor invstd = running_invstd();
  for (int64_t c = 0; c < channels_; ++c) {
    const float is = invstd[c];
    scale[static_cast<size_t>(c)] = gamma_.value[c] * is;
    shift[static_cast<size_t>(c)] = beta_.value[c] - running_mean_[c] * gamma_.value[c] * is;
  }
  conv.fold_scale_shift(scale, shift);
}

}  // namespace axnn::nn
