#include "scada/plc.h"

#include <algorithm>
#include <stdexcept>

namespace divsec::scada {

Plc::Plc(std::string name) : name_(std::move(name)) {
  if (name_.empty()) throw std::invalid_argument("Plc: empty name");
}

void Plc::validate_program(const IlProgram& p, const std::vector<PidBlock>& pids) const {
  for (const auto& ins : p) {
    switch (ins.space) {
      case OperandSpace::kInput:
        if (ins.address >= kPlcInputs) throw std::invalid_argument("IL: %I out of range");
        break;
      case OperandSpace::kOutput:
        if (ins.address >= kPlcOutputs)
          throw std::invalid_argument("IL: %Q out of range");
        break;
      case OperandSpace::kMemory:
        if (ins.address >= kPlcMemory) throw std::invalid_argument("IL: %M out of range");
        break;
      case OperandSpace::kConstant:
        if (ins.op == IlOp::kSt || ins.op == IlOp::kStn)
          throw std::invalid_argument("IL: cannot store to a constant");
        break;
    }
  }
  for (const auto& pid : pids) {
    if (pid.input >= kPlcInputs || pid.output >= kPlcOutputs)
      throw std::invalid_argument("PID: register out of range");
    if (!(pid.out_max > pid.out_min))
      throw std::invalid_argument("PID: out_max must be > out_min");
  }
}

void Plc::load_program(IlProgram program, std::vector<PidBlock> pids) {
  validate_program(program, pids);
  program_ = std::move(program);
  pids_ = std::move(pids);
  pid_integral_.assign(pids_.size(), 0.0);
  pid_prev_error_.assign(pids_.size(), 0.0);
}

double Plc::read_operand(const IlInstruction& ins) const {
  switch (ins.space) {
    case OperandSpace::kInput: return inputs_[ins.address];
    case OperandSpace::kOutput: return outputs_[ins.address];
    case OperandSpace::kMemory: return memory_[ins.address];
    case OperandSpace::kConstant: return ins.constant;
  }
  return 0.0;
}

void Plc::write_operand(const IlInstruction& ins, double v) {
  switch (ins.space) {
    case OperandSpace::kInput: inputs_[ins.address] = v; break;
    case OperandSpace::kOutput: outputs_[ins.address] = v; break;
    case OperandSpace::kMemory: memory_[ins.address] = v; break;
    case OperandSpace::kConstant: break;  // rejected at load time
  }
}

namespace {
[[nodiscard]] bool truthy(double v) noexcept { return v != 0.0; }
}  // namespace

void Plc::scan(double dt_s) {
  if (dt_s < 0.0) throw std::invalid_argument("Plc::scan: negative dt");
  double acc = 0.0;
  for (const auto& ins : program_) {
    const double x = read_operand(ins);
    switch (ins.op) {
      case IlOp::kLd: acc = x; break;
      case IlOp::kLdn: acc = truthy(x) ? 0.0 : 1.0; break;
      case IlOp::kSt: write_operand(ins, acc); break;
      case IlOp::kStn: write_operand(ins, truthy(acc) ? 0.0 : 1.0); break;
      case IlOp::kAnd: acc = (truthy(acc) && truthy(x)) ? 1.0 : 0.0; break;
      case IlOp::kOr: acc = (truthy(acc) || truthy(x)) ? 1.0 : 0.0; break;
      case IlOp::kAndn: acc = (truthy(acc) && !truthy(x)) ? 1.0 : 0.0; break;
      case IlOp::kOrn: acc = (truthy(acc) || !truthy(x)) ? 1.0 : 0.0; break;
      case IlOp::kAdd: acc += x; break;
      case IlOp::kSub: acc -= x; break;
      case IlOp::kMul: acc *= x; break;
      case IlOp::kDiv: acc = (x == 0.0) ? 0.0 : acc / x; break;
      case IlOp::kGt: acc = acc > x ? 1.0 : 0.0; break;
      case IlOp::kLt: acc = acc < x ? 1.0 : 0.0; break;
      case IlOp::kGe: acc = acc >= x ? 1.0 : 0.0; break;
      case IlOp::kLe: acc = acc <= x ? 1.0 : 0.0; break;
    }
  }
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    const PidBlock& pid = pids_[i];
    const double pv = inputs_[pid.input];
    const double error = pid.reverse_acting ? pv - pid.setpoint : pid.setpoint - pv;
    if (dt_s > 0.0) {
      pid_integral_[i] += error * dt_s;
      // Conditional anti-windup: clamp the integral so the P+I term stays
      // representable inside the output range.
      if (pid.ki > 0.0) {
        const double imax = (pid.out_max - pid.out_min) / pid.ki;
        pid_integral_[i] = std::clamp(pid_integral_[i], -imax, imax);
      }
    }
    const double deriv =
        dt_s > 0.0 ? (error - pid_prev_error_[i]) / dt_s : 0.0;
    pid_prev_error_[i] = error;
    const double u = pid.kp * error + pid.ki * pid_integral_[i] + pid.kd * deriv;
    outputs_[pid.output] = std::clamp(u, pid.out_min, pid.out_max);
  }
  ++scans_;
}

void Plc::set_input(std::size_t i, double v) {
  if (i >= kPlcInputs) throw std::out_of_range("Plc::set_input");
  inputs_[i] = v;
}

double Plc::input(std::size_t i) const {
  if (i >= kPlcInputs) throw std::out_of_range("Plc::input");
  return inputs_[i];
}

double Plc::output(std::size_t i) const {
  if (i >= kPlcOutputs) throw std::out_of_range("Plc::output");
  return outputs_[i];
}

void Plc::set_memory(std::size_t i, double v) {
  if (i >= kPlcMemory) throw std::out_of_range("Plc::set_memory");
  memory_[i] = v;
}

}  // namespace divsec::scada
