// plc.h — programmable logic controller with an IEC 61131-3-style
// instruction-list (IL) runtime.
//
// The PLC executes a scan cycle: latch inputs -> run the IL program (and
// any PID function blocks) -> commit outputs. Registers are doubles;
// boolean logic treats nonzero as true. The Stuxnet-style attack hook is
// load_program(): reprogramming the PLC swaps the control logic while the
// register map (protocol.h) keeps answering reads — optionally with
// replayed pre-attack values (spoofing), which is exactly the behaviour
// the paper highlights ("fooling the SCADA system by emulating regular
// monitoring signals").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace divsec::scada {

inline constexpr std::size_t kPlcInputs = 16;
inline constexpr std::size_t kPlcOutputs = 16;
inline constexpr std::size_t kPlcMemory = 32;

/// Operand spaces of the IL instruction set.
enum class OperandSpace : std::uint8_t {
  kInput,     // %I
  kOutput,    // %Q
  kMemory,    // %M
  kConstant,  // literal
};

enum class IlOp : std::uint8_t {
  kLd,    // acc = operand
  kLdn,   // acc = !operand (boolean)
  kSt,    // operand = acc
  kStn,   // operand = !acc (boolean)
  kAnd,   // acc = acc && operand
  kOr,    // acc = acc || operand
  kAndn,  // acc = acc && !operand
  kOrn,   // acc = acc || !operand
  kAdd,   // acc += operand
  kSub,   // acc -= operand
  kMul,   // acc *= operand
  kDiv,   // acc /= operand (operand 0 -> acc = 0)
  kGt,    // acc = acc > operand
  kLt,    // acc = acc < operand
  kGe,    // acc = acc >= operand
  kLe,    // acc = acc <= operand
};

struct IlInstruction {
  IlOp op = IlOp::kLd;
  OperandSpace space = OperandSpace::kConstant;
  std::uint8_t address = 0;  // index within the operand space
  double constant = 0.0;     // kConstant operand value
};

using IlProgram = std::vector<IlInstruction>;

/// A textbook discrete PID block executed once per scan.
struct PidBlock {
  std::uint8_t input = 0;     // %I index: process variable
  std::uint8_t output = 0;    // %Q index: command
  double setpoint = 0.0;
  double kp = 1.0;
  double ki = 0.0;
  double kd = 0.0;
  double out_min = 0.0;
  double out_max = 1.0;
  /// If true the controller drives the PV *down* toward the setpoint
  /// (cooling): error = pv - setpoint.
  bool reverse_acting = true;
};

class Plc {
 public:
  explicit Plc(std::string name);

  /// Replace the control logic (also the attack hook). Validates operand
  /// addresses; resets PID integrator state.
  void load_program(IlProgram program, std::vector<PidBlock> pids = {});

  /// One scan cycle with `dt_s` since the previous scan (for PID).
  void scan(double dt_s);

  void set_input(std::size_t i, double v);
  [[nodiscard]] double input(std::size_t i) const;
  [[nodiscard]] double output(std::size_t i) const;
  void set_memory(std::size_t i, double v);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t scan_count() const noexcept { return scans_; }
  [[nodiscard]] const IlProgram& program() const noexcept { return program_; }

 private:
  void validate_program(const IlProgram& p, const std::vector<PidBlock>& pids) const;
  [[nodiscard]] double read_operand(const IlInstruction& ins) const;
  void write_operand(const IlInstruction& ins, double v);

  std::string name_;
  IlProgram program_;
  std::vector<PidBlock> pids_;
  std::vector<double> pid_integral_;
  std::vector<double> pid_prev_error_;
  double inputs_[kPlcInputs] = {};
  double outputs_[kPlcOutputs] = {};
  double memory_[kPlcMemory] = {};
  std::uint64_t scans_ = 0;
};

}  // namespace divsec::scada
