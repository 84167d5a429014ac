// Tests for scada/plant.h and scada/plc.h — physics and control runtime.
#include <gtest/gtest.h>

#include "scada/plant.h"
#include "scada/plc.h"

namespace divsec::scada {
namespace {

TEST(Plant, HeatsUpWithoutCooling) {
  CoolingPlant plant;
  const double t0 = plant.room_temp_c();
  plant.step(3600.0, /*fan=*/0.0, /*valve=*/0.0);
  EXPECT_GT(plant.room_temp_c(), t0 + 20.0);
  EXPECT_TRUE(plant.overheated(35.0));
}

TEST(Plant, FullCoolingHoldsTemperature) {
  CoolingPlant plant;
  plant.step(4.0 * 3600.0, 1.0, 1.0);
  EXPECT_LT(plant.room_temp_c(), 30.0);
  EXPECT_FALSE(plant.overheated(35.0));
}

TEST(Plant, CoolingRequiresColdWater) {
  PlantParameters pp;
  pp.initial_water_temp_c = pp.initial_room_temp_c;  // useless loop
  pp.chiller_capacity_kw = 0.0;                      // and no chiller
  CoolingPlant plant(pp);
  const double t0 = plant.room_temp_c();
  plant.step(1800.0, 1.0, 1.0);
  EXPECT_GT(plant.room_temp_c(), t0);  // fan alone cannot cool
}

TEST(Plant, CommandsAreClamped) {
  CoolingPlant a, b;
  a.step(600.0, 5.0, 5.0);   // clamped to 1.0
  b.step(600.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(a.room_temp_c(), b.room_temp_c());
}

TEST(Plant, TimeAdvancesBySubsteps) {
  CoolingPlant plant;
  plant.step(10.5, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(plant.time_s(), 10.5);
  EXPECT_THROW(plant.step(-1.0, 0, 0), std::invalid_argument);
}

TEST(Plant, ParameterValidation) {
  PlantParameters pp;
  pp.room_heat_capacity_kj_per_c = 0.0;
  EXPECT_THROW(CoolingPlant{pp}, std::invalid_argument);
  pp = PlantParameters{};
  pp.integration_substep_s = 0.0;
  EXPECT_THROW(CoolingPlant{pp}, std::invalid_argument);
  pp = PlantParameters{};
  pp.it_load_kw = -5.0;
  EXPECT_THROW(CoolingPlant{pp}, std::invalid_argument);
}

TEST(Plc, IlArithmetic) {
  Plc plc("test");
  using S = OperandSpace;
  plc.load_program({
      {IlOp::kLd, S::kInput, 0, 0.0},
      {IlOp::kAdd, S::kConstant, 0, 10.0},
      {IlOp::kMul, S::kConstant, 0, 2.0},
      {IlOp::kSub, S::kInput, 1, 0.0},
      {IlOp::kSt, S::kOutput, 0, 0.0},
  });
  plc.set_input(0, 5.0);
  plc.set_input(1, 3.0);
  plc.scan(0.1);
  EXPECT_DOUBLE_EQ(plc.output(0), (5.0 + 10.0) * 2.0 - 3.0);
  EXPECT_EQ(plc.scan_count(), 1u);
}

TEST(Plc, IlBooleanLogic) {
  Plc plc("bool");
  using S = OperandSpace;
  // Q0 = (I0 AND NOT I1) OR I2.
  plc.load_program({
      {IlOp::kLd, S::kInput, 0, 0.0},
      {IlOp::kAndn, S::kInput, 1, 0.0},
      {IlOp::kOr, S::kInput, 2, 0.0},
      {IlOp::kSt, S::kOutput, 0, 0.0},
  });
  const auto run = [&](double a, double b, double c) {
    plc.set_input(0, a);
    plc.set_input(1, b);
    plc.set_input(2, c);
    plc.scan(0.1);
    return plc.output(0);
  };
  EXPECT_EQ(run(1, 0, 0), 1.0);
  EXPECT_EQ(run(1, 1, 0), 0.0);
  EXPECT_EQ(run(0, 1, 1), 1.0);
  EXPECT_EQ(run(0, 0, 0), 0.0);
}

TEST(Plc, IlComparisonsAndDivision) {
  Plc plc("cmp");
  using S = OperandSpace;
  plc.load_program({
      {IlOp::kLd, S::kInput, 0, 0.0},
      {IlOp::kDiv, S::kConstant, 0, 4.0},
      {IlOp::kGt, S::kConstant, 0, 2.0},
      {IlOp::kSt, S::kOutput, 0, 0.0},
      // Division by zero yields 0, not a crash.
      {IlOp::kLd, S::kInput, 0, 0.0},
      {IlOp::kDiv, S::kConstant, 0, 0.0},
      {IlOp::kSt, S::kOutput, 1, 0.0},
  });
  plc.set_input(0, 12.0);
  plc.scan(0.1);
  EXPECT_EQ(plc.output(0), 1.0);  // 12/4 = 3 > 2
  EXPECT_EQ(plc.output(1), 0.0);
}

TEST(Plc, HysteresisProgramLatches) {
  // A thermostat that drives %Q0 from %I0 with hysteresis latched in %M0:
  //   M0 = (I0 > 28) OR (M0 AND NOT(I0 < 24)); Q0 = M0.
  // %M1 is scratch for the "not below the release threshold" term.
  using S = OperandSpace;
  Plc plc("thermo");
  plc.load_program(IlProgram{
      {IlOp::kLd, S::kInput, 0, 0.0},
      {IlOp::kLt, S::kConstant, 0, 24.0},  // acc = I0 < 24
      {IlOp::kStn, S::kMemory, 1, 0.0},    // M1 = !(below)
      {IlOp::kLd, S::kMemory, 0, 0.0},
      {IlOp::kAnd, S::kMemory, 1, 0.0},    // acc = M0 && !below
      {IlOp::kSt, S::kMemory, 0, 0.0},
      {IlOp::kLd, S::kInput, 0, 0.0},
      {IlOp::kGt, S::kConstant, 0, 28.0},  // acc = I0 > 28
      {IlOp::kOr, S::kMemory, 0, 0.0},
      {IlOp::kSt, S::kMemory, 0, 0.0},
      {IlOp::kSt, S::kOutput, 0, 0.0},
  });
  const auto run = [&](double t) {
    plc.set_input(0, t);
    plc.scan(0.5);
    return plc.output(0);
  };
  EXPECT_EQ(run(25.0), 0.0);  // below on-threshold, off
  EXPECT_EQ(run(29.0), 1.0);  // crossed: on
  EXPECT_EQ(run(26.0), 1.0);  // inside band: stays on
  EXPECT_EQ(run(23.0), 0.0);  // below release: off
  EXPECT_EQ(run(26.0), 0.0);  // inside band: stays off
}

TEST(Plc, PidDrivesProcessVariableToSetpoint) {
  Plc plc("pid");
  plc.load_program({}, {PidBlock{0, 0, 24.0, 0.8, 0.02, 0.0, 0.0, 1.0, true}});
  CoolingPlant plant;
  // Closed loop: plc controls the fan from the room temperature, with the
  // chiller valve held open.
  for (int i = 0; i < 4 * 3600; ++i) {
    plc.set_input(0, plant.room_temp_c());
    plc.scan(1.0);
    plant.step(1.0, plc.output(0), 1.0);
  }
  EXPECT_NEAR(plant.room_temp_c(), 24.0, 1.5);
}

TEST(Plc, PidOutputClamped) {
  Plc plc("pid2");
  plc.load_program({}, {PidBlock{0, 0, 0.0, 100.0, 0.0, 0.0, 0.0, 1.0, false}});
  plc.set_input(0, -1000.0);  // enormous error
  plc.scan(1.0);
  EXPECT_EQ(plc.output(0), 1.0);
}

TEST(Plc, ProgramValidation) {
  Plc plc("v");
  using S = OperandSpace;
  EXPECT_THROW(plc.load_program({{IlOp::kLd, S::kInput, 99, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(plc.load_program({{IlOp::kSt, S::kConstant, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(plc.load_program({}, {PidBlock{99, 0}}), std::invalid_argument);
  PidBlock bad{0, 0};
  bad.out_min = 1.0;
  bad.out_max = 0.0;
  EXPECT_THROW(plc.load_program({}, {bad}), std::invalid_argument);
  EXPECT_THROW(Plc(""), std::invalid_argument);
  EXPECT_THROW(plc.set_input(99, 0.0), std::out_of_range);
  EXPECT_THROW((void)plc.output(99), std::out_of_range);
  EXPECT_THROW(plc.scan(-1.0), std::invalid_argument);
}

TEST(Plc, ReprogrammingResetsPidState) {
  Plc plc("r");
  plc.load_program({}, {PidBlock{0, 0, 0.0, 0.0, 1.0, 0.0, -10.0, 10.0, false}});
  plc.set_input(0, 5.0);
  for (int i = 0; i < 10; ++i) plc.scan(1.0);
  const double integ = plc.output(0);
  EXPECT_NE(integ, 0.0);
  plc.load_program({}, {PidBlock{0, 0, 0.0, 0.0, 1.0, 0.0, -10.0, 10.0, false}});
  plc.set_input(0, 0.0);
  plc.scan(1.0);
  EXPECT_EQ(plc.output(0), 0.0);  // integral was cleared
}

}  // namespace
}  // namespace divsec::scada
