// gtest glue for the queue-family registry (queues/queues.hpp): a typed
// suite over a FamilyList takes the list's queue types as its TypeParams
// and the family names as its instance names, so a filter such as
// `QueueConcurrentTest/wfq.*` stays put when the list changes.
//
//   TYPED_TEST_SUITE(MySuite, FamilyTypes<FifoFamilies>,
//                    FamilyNames<FifoFamilies>);
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "queues/queues.hpp"

namespace msq::queues {

template <typename List>
using FamilyTypes = typename List::template apply<::testing::Types>;

template <typename List>
struct FamilyNames {
  template <typename Q>
  static std::string GetName(int /*index*/) {
    return std::string(List::template name_of<Q>());
  }
};

}  // namespace msq::queues
