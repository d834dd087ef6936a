// Tests for the backend registry (src/core/backend.hpp): the self-describing
// engine table that replaced the hard-coded EngineKind switches in the
// daemon, the CLI and the benches.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/backend.hpp"

namespace gsnp::core {
namespace {

TEST(Backend, RegistryListsEveryEngineOnce) {
  const auto registry = backend_registry();
  ASSERT_EQ(registry.size(), 3u);

  std::set<std::string> names, ids;
  std::set<EngineKind> kinds;
  for (const BackendInfo& b : registry) {
    EXPECT_TRUE(names.insert(b.name).second) << b.name;
    EXPECT_TRUE(ids.insert(b.id).second) << b.id;
    EXPECT_TRUE(kinds.insert(b.kind).second);
    EXPECT_NE(b.description, nullptr);
    EXPECT_GT(std::string(b.description).size(), 0u);
  }
  EXPECT_TRUE(names.count("soapsnp"));
  EXPECT_TRUE(names.count("gsnp-cpu"));
  EXPECT_TRUE(names.count("gsnp"));
}

TEST(Backend, CapabilityFlags) {
  EXPECT_FALSE(backend_info(EngineKind::kSoapsnp).needs_device);
  EXPECT_TRUE(backend_info(EngineKind::kSoapsnp).text_output);

  EXPECT_FALSE(backend_info(EngineKind::kGsnpCpu).needs_device);
  EXPECT_FALSE(backend_info(EngineKind::kGsnpCpu).text_output);

  EXPECT_TRUE(backend_info(EngineKind::kGsnp).needs_device);
  EXPECT_FALSE(backend_info(EngineKind::kGsnp).text_output);
}

TEST(Backend, FindAcceptsNameAndId) {
  for (const BackendInfo& b : backend_registry()) {
    const BackendInfo* by_name = find_backend(b.name);
    const BackendInfo* by_id = find_backend(b.id);
    ASSERT_NE(by_name, nullptr) << b.name;
    ASSERT_NE(by_id, nullptr) << b.id;
    EXPECT_EQ(by_name, by_id);
    EXPECT_EQ(by_name->kind, b.kind);
  }
  EXPECT_EQ(find_backend("warp-drive"), nullptr);
  EXPECT_EQ(find_backend(""), nullptr);
  EXPECT_EQ(find_backend("GSNP"), nullptr);  // names are case-sensitive
}

TEST(Backend, RequireBackendThrowsListingValidNames) {
  EXPECT_EQ(&require_backend("gsnp-cpu"),
            &backend_info(EngineKind::kGsnpCpu));
  try {
    require_backend("warp-drive");
    FAIL() << "expected UnknownBackendError";
  } catch (const UnknownBackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp-drive"), std::string::npos);
    for (const BackendInfo& b : backend_registry())
      EXPECT_NE(what.find(b.name), std::string::npos) << b.name;
  }
}

TEST(Backend, EngineNameRoundTripsThroughRegistry) {
  // engine_name stays the strict "_" id spelling (filenames, manifests);
  // engine_kind_from_name accepts both spellings via the registry.
  EXPECT_STREQ(engine_name(EngineKind::kGsnpCpu), "gsnp_cpu");
  for (const BackendInfo& b : backend_registry()) {
    EXPECT_STREQ(engine_name(b.kind), b.id);
    ASSERT_TRUE(engine_kind_from_name(b.id).has_value());
    EXPECT_EQ(*engine_kind_from_name(b.id), b.kind);
    ASSERT_TRUE(engine_kind_from_name(b.name).has_value());
    EXPECT_EQ(*engine_kind_from_name(b.name), b.kind);
  }
  EXPECT_FALSE(engine_kind_from_name("warp-drive").has_value());
}

TEST(Backend, NameListMentionsEveryBackend) {
  const std::string list = backend_name_list();
  for (const BackendInfo& b : backend_registry())
    EXPECT_NE(list.find(b.name), std::string::npos) << b.name;
}

TEST(Backend, RunBackendEnforcesDeviceRequirement) {
  EngineConfig config;  // never reached: the device check fires first
  EXPECT_THROW(run_backend(backend_info(EngineKind::kGsnp), config, nullptr),
               Error);
}

}  // namespace
}  // namespace gsnp::core
