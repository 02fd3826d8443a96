// PodSpec <-> YAML binding: the §4.1 client interface with the two
// MicroEdge extension knobs.

#include <gtest/gtest.h>

#include "orch/spec.hpp"

namespace microedge {
namespace {

constexpr const char* kFullSpec =
    "name: camera-03\n"
    "image: coral-pie:1.4\n"
    "fps: 15\n"
    "resources:\n"
    "  cpu: 500m\n"
    "  memory: 256Mi\n"
    "  tpu-units: 0.35\n"
    "  model: ssd-mobilenet-v2\n"
    "labels:\n"
    "  app: coral-pie\n"
    "nodeSelector:\n"
    "  tier: edge\n"
    "antiAffinity: coral-pie-camera\n";

TEST(SpecTest, ParsesFullSpec) {
  auto spec = podSpecFromYaml(std::string(kFullSpec));
  ASSERT_TRUE(spec.isOk()) << spec.status();
  EXPECT_EQ(spec->name, "camera-03");
  EXPECT_EQ(spec->image, "coral-pie:1.4");
  EXPECT_DOUBLE_EQ(spec->fps, 15.0);
  EXPECT_EQ(spec->resources.cpuMillicores, 500);
  EXPECT_EQ(spec->resources.memoryMb, 256);
  ASSERT_TRUE(spec->tpu.has_value());
  EXPECT_EQ(spec->tpu->model, "ssd-mobilenet-v2");
  EXPECT_NEAR(spec->tpu->tpuUnits, 0.35, 1e-12);
  EXPECT_EQ(spec->labels.at("app"), "coral-pie");
  EXPECT_EQ(spec->nodeSelector.at("tier"), "edge");
  EXPECT_EQ(spec->antiAffinityKey, "coral-pie-camera");
}

TEST(SpecTest, MinimalSpecWithoutTpu) {
  auto spec = podSpecFromYaml("name: plain\n");
  ASSERT_TRUE(spec.isOk());
  EXPECT_EQ(spec->name, "plain");
  EXPECT_FALSE(spec->tpu.has_value());
}

TEST(SpecTest, NameIsRequired) {
  EXPECT_FALSE(podSpecFromYaml("image: x\n").isOk());
}

TEST(SpecTest, TpuUnitsAndModelMustComeTogether) {
  EXPECT_FALSE(
      podSpecFromYaml("name: a\nresources:\n  tpu-units: 0.5\n").isOk());
  EXPECT_FALSE(
      podSpecFromYaml("name: a\nresources:\n  model: mobilenet-v1\n").isOk());
}

TEST(SpecTest, TpuUnitsMustBePositive) {
  EXPECT_FALSE(podSpecFromYaml("name: a\nresources:\n  tpu-units: 0\n"
                               "  model: m\n")
                   .isOk());
  EXPECT_FALSE(podSpecFromYaml("name: a\nresources:\n  tpu-units: -0.2\n"
                               "  model: m\n")
                   .isOk());
}

TEST(SpecTest, UnitsAboveOneAreLegal) {
  // BodyPix requests 1.2 units; workload partitioning handles it.
  auto spec = podSpecFromYaml(
      "name: seg\nresources:\n  tpu-units: 1.2\n  model: bodypix\n");
  ASSERT_TRUE(spec.isOk());
  EXPECT_NEAR(spec->tpu->tpuUnits, 1.2, 1e-12);
}

TEST(SpecTest, CpuUnitSyntax) {
  EXPECT_EQ(*parseCpuMillicores("500m"), 500);
  EXPECT_EQ(*parseCpuMillicores("1"), 1000);
  EXPECT_EQ(*parseCpuMillicores("2.5"), 2500);
  EXPECT_FALSE(parseCpuMillicores("").isOk());
  EXPECT_FALSE(parseCpuMillicores("abc").isOk());
  EXPECT_FALSE(parseCpuMillicores("-1").isOk());
  EXPECT_FALSE(parseCpuMillicores("12mx").isOk());
}

TEST(SpecTest, MemoryUnitSyntax) {
  EXPECT_EQ(*parseMemoryMb("256Mi"), 256);
  EXPECT_EQ(*parseMemoryMb("2Gi"), 2048);
  EXPECT_EQ(*parseMemoryMb("512"), 512);
  EXPECT_FALSE(parseMemoryMb("lots").isOk());
  EXPECT_FALSE(parseMemoryMb("").isOk());
}

TEST(SpecTest, NegativeFpsRejected) {
  EXPECT_FALSE(podSpecFromYaml("name: a\nfps: -5\n").isOk());
}

TEST(SpecTest, NumbersMustBeFiniteAndFitTheirIntegers) {
  // Casting any of these to long would be undefined; unchecked, they came
  // out as LONG_MIN millicores or MB.
  for (const char* cpu : {"1e300", "nan", "inf", "9.3e15",
                          "99999999999999999999m"}) {
    EXPECT_FALSE(parseCpuMillicores(cpu).isOk()) << cpu;
    EXPECT_FALSE(
        podSpecFromYaml(std::string("name: a\nresources:\n  cpu: ") + cpu)
            .isOk())
        << cpu;
  }
  for (const char* memory : {"1e300Gi", "nanGi", "nan", "inf", "9.3e18Mi"}) {
    EXPECT_FALSE(parseMemoryMb(memory).isOk()) << memory;
    EXPECT_FALSE(podSpecFromYaml(
                     std::string("name: a\nresources:\n  memory: ") + memory)
                     .isOk())
        << memory;
  }
  // The largest values that fit still parse.
  EXPECT_EQ(*parseCpuMillicores("9.2e15"), 9200000000000000000L);
  EXPECT_EQ(*parseMemoryMb("9.2e18Mi"), 9200000000000000000L);

  // A frame rate must give a frame period of 1 ns to about 292 years.
  for (const char* fps : {"nan", "inf", "1e-300", "1e300"}) {
    EXPECT_FALSE(podSpecFromYaml(std::string("name: a\nfps: ") + fps).isOk())
        << fps;
  }
  EXPECT_TRUE(podSpecFromYaml("name: a\nfps: 0\n").isOk());  // unset
  EXPECT_TRUE(podSpecFromYaml("name: a\nfps: 1e9\n").isOk());

  // TPU units become int64 milli-units.
  for (const char* units : {"nan", "inf", "1e16"}) {
    EXPECT_FALSE(podSpecFromYaml(std::string("name: a\nresources:\n"
                                             "  model: m\n  tpu-units: ") +
                                 units)
                     .isOk())
        << units;
  }
}

TEST(SpecTest, RoundTripThroughYaml) {
  auto spec = podSpecFromYaml(std::string(kFullSpec));
  ASSERT_TRUE(spec.isOk());
  std::string rendered = podSpecToYaml(*spec);
  auto reparsed = podSpecFromYaml(rendered);
  ASSERT_TRUE(reparsed.isOk()) << reparsed.status() << "\n" << rendered;
  EXPECT_EQ(reparsed->name, spec->name);
  EXPECT_EQ(reparsed->resources.cpuMillicores, spec->resources.cpuMillicores);
  EXPECT_EQ(reparsed->resources.memoryMb, spec->resources.memoryMb);
  EXPECT_NEAR(reparsed->tpu->tpuUnits, spec->tpu->tpuUnits, 1e-9);
  EXPECT_EQ(reparsed->tpu->model, spec->tpu->model);
  EXPECT_EQ(reparsed->labels, spec->labels);
  EXPECT_EQ(reparsed->nodeSelector, spec->nodeSelector);
  EXPECT_EQ(reparsed->antiAffinityKey, spec->antiAffinityKey);
}

TEST(SpecTest, MalformedYamlSurfacesParserError) {
  auto spec = podSpecFromYaml("name: a\n\tbad: tab\n");
  ASSERT_FALSE(spec.isOk());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace microedge
