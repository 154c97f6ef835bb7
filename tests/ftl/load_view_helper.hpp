// Test-side LoadView: wraps two lambdas (channel and chip backlog) into
// the interface the dynamic placement policy probes, without type erasure.
#pragma once

#include <cstdint>
#include <utility>

#include "ftl/page_alloc.hpp"

namespace ssdk::ftl {

template <typename ChannelFn, typename ChipFn>
class CallableLoadView final : public LoadView {
 public:
  CallableLoadView(ChannelFn channel, ChipFn chip)
      : channel_(std::move(channel)), chip_(std::move(chip)) {}

  Duration channel_backlog(std::uint32_t channel) const override {
    return channel_(channel);
  }
  Duration chip_backlog(std::uint32_t global_chip) const override {
    return chip_(global_chip);
  }

 private:
  ChannelFn channel_;
  ChipFn chip_;
};

template <typename ChannelFn, typename ChipFn>
CallableLoadView<ChannelFn, ChipFn> make_load_view(ChannelFn channel,
                                                   ChipFn chip) {
  return {std::move(channel), std::move(chip)};
}

}  // namespace ssdk::ftl
