//===- alpha/ISA.h - Alpha EV6 machine description --------------*- C++ -*-===//
///
/// \file
/// The architectural description consumed by the constraint generator
/// (paper, Figure 1): which functional units can execute which
/// instructions, instruction latencies, and the EV6's clustered layout —
/// expressed as a machine::MachineModel backend.
///
/// The EV6 is a quad-issue processor with four integer execution units in
/// two clusters — upper/lower (U/L) by capability, 0/1 by cluster:
///
///           cluster 0     cluster 1
///   upper      U0            U1       (shifter + byte ops live here)
///   lower      L0            L1       (loads/stores live here)
///
/// A result computed on one cluster is available to the other one cycle
/// later (the paper's "multiple register banks and extra delays for moving
/// values between banks"). Figure 4's "unused" instruction exists exactly
/// because of this constraint.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_ALPHA_ISA_H
#define DENALI_ALPHA_ISA_H

#include "ir/Term.h"
#include "machine/Machine.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace denali {
namespace alpha {

/// The generic machine types, re-exported under the historical names.
using machine::MemKind;
using InstrDesc = machine::InstrDesc;

/// The four integer issue slots of the EV6.
enum class Unit : uint8_t { U0 = 0, U1 = 1, L0 = 2, L1 = 3 };
constexpr unsigned NumUnits = 4;
constexpr unsigned NumClusters = 2;

inline unsigned unitIndex(Unit U) { return static_cast<unsigned>(U); }
inline Unit unitFromIndex(unsigned I) { return static_cast<Unit>(I); }
inline unsigned clusterOf(Unit U) {
  return (U == Unit::U0 || U == Unit::L0) ? 0 : 1;
}
const char *unitName(Unit U);

/// Unit-mask bits.
constexpr uint8_t MaskU0 = 1 << 0;
constexpr uint8_t MaskU1 = 1 << 1;
constexpr uint8_t MaskL0 = 1 << 2;
constexpr uint8_t MaskL1 = 1 << 3;
constexpr uint8_t MaskUpper = MaskU0 | MaskU1;
constexpr uint8_t MaskLower = MaskL0 | MaskL1;
constexpr uint8_t MaskAll = MaskUpper | MaskLower;

/// The EV6 machine description — the paper's target: clustered quad
/// issue, upper-only shifter and byte unit, U1-only multiplier, lower-only
/// memory pipes. An operator -> instruction table plus global timing
/// parameters, behind the generic MachineModel interface.
class ISA : public machine::MachineModel {
public:
  explicit ISA(ir::Context &Ctx);

  std::string name() const override { return "alpha"; }

  /// Extra cycles before a result is usable on the other cluster.
  unsigned crossClusterDelay() const override { return 1; }

  /// The 8-bit ALU literal occupies the Rb slot: the last source for plain
  /// ALU ops but the middle (value) operand for conditional moves
  /// (cmovXX Ra, Rb/#lit, Rc).
  size_t immArgIndex(const machine::InstrDesc &D,
                     size_t Arity) const override {
    if (D.Mnemonic.rfind("cmov", 0) == 0)
      return 1;
    return Arity - 1;
  }
};

/// Registers the "alpha" backend. Idempotent; call before
/// machine::createMachine.
void registerAlphaMachine();

} // namespace alpha
} // namespace denali

#endif // DENALI_ALPHA_ISA_H
