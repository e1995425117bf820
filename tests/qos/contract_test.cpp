#include "src/qos/contract.hpp"

#include <gtest/gtest.h>

namespace faucets::qos {
namespace {

TEST(Contract, MakeContractIsValid) {
  const auto c = make_contract(4, 32, 1000.0, 0.95, 0.8);
  EXPECT_TRUE(c.valid());
  EXPECT_TRUE(c.adaptive());
  EXPECT_EQ(c.min_procs, 4);
  EXPECT_EQ(c.max_procs, 32);
  EXPECT_DOUBLE_EQ(c.work, 1000.0);
}

TEST(Contract, RigidContract) {
  const auto c = make_contract(8, 8, 100.0);
  EXPECT_TRUE(c.valid());
  EXPECT_FALSE(c.adaptive());
}

TEST(Contract, InvalidWhenMinExceedsMax) {
  QosContract c = make_contract(4, 32, 100.0);
  c.min_procs = 64;
  EXPECT_FALSE(c.valid());
}

TEST(Contract, InvalidWithoutWork) {
  const auto c = make_contract(1, 2, 0.0);
  EXPECT_FALSE(c.valid());
}

TEST(Contract, InvalidWhenEfficiencyRangeMismatches) {
  QosContract c = make_contract(4, 32, 100.0);
  c.efficiency = EfficiencyModel{2, 32, 1.0, 1.0};
  EXPECT_FALSE(c.valid());
}

TEST(Contract, EstimatedRuntimeUsesSpeedFactor) {
  const auto c = make_contract(10, 10, 1000.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(c.estimated_runtime(10), 100.0);
  EXPECT_DOUBLE_EQ(c.estimated_runtime(10, 2.0), 50.0);
}

TEST(Resources, TotalMemoryDerivedFromPerProc) {
  ResourceRequirements r;
  r.memory_per_proc_mb = 512.0;
  EXPECT_DOUBLE_EQ(r.total_memory_for(8), 4096.0);
}

TEST(Software, EmptyRequirementsAlwaysSatisfied) {
  SoftwareEnvironment need;
  SoftwareEnvironment host{.application = "namd", .operating_system = "linux",
                           .libraries = {"charm++"}};
  EXPECT_TRUE(need.satisfied_by(host));
}

TEST(Software, ApplicationMustMatch) {
  SoftwareEnvironment need{.application = "namd", .operating_system = "", .libraries = {}};
  SoftwareEnvironment host{.application = "gromacs", .operating_system = "linux",
                           .libraries = {}};
  EXPECT_FALSE(need.satisfied_by(host));
  host.application = "namd";
  EXPECT_TRUE(need.satisfied_by(host));
}

TEST(Software, LibrariesMustAllBePresent) {
  SoftwareEnvironment need{.application = "", .operating_system = "",
                           .libraries = {"charm++", "fftw"}};
  SoftwareEnvironment host{.application = "", .operating_system = "linux",
                           .libraries = {"charm++"}};
  EXPECT_FALSE(need.satisfied_by(host));
  host.libraries.push_back("fftw");
  EXPECT_TRUE(need.satisfied_by(host));
}

TEST(Software, OperatingSystemMismatch) {
  SoftwareEnvironment need{.application = "", .operating_system = "aix", .libraries = {}};
  SoftwareEnvironment host{.application = "", .operating_system = "linux",
                           .libraries = {}};
  EXPECT_FALSE(need.satisfied_by(host));
}

}  // namespace
}  // namespace faucets::qos
