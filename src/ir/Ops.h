//===- ir/Ops.h - Operator table --------------------------------*- C++ -*-===//
///
/// \file
/// The operator universe of Denali terms. Operators come in three flavors:
///
///  * \b builtin operators with fixed semantics (add64, selectb, extbl, ...)
///    shared by the reference evaluator, the matcher's constant folder, and
///    the Alpha functional simulator;
///  * \b variables (arity-0 operators standing for the inputs of a GMA:
///    registers, the memory array M, ...);
///  * \b declared operators introduced by a program's \opdecl forms (e.g.
///    the checksum program's local `add` and `carry`); these have no fixed
///    semantics and are given meaning only by axioms.
///
/// Whether an operator is a *machine operation* (computable by one target
/// instruction) is not recorded here; that is a property of the target and
/// lives in alpha::ISA.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_IR_OPS_H
#define DENALI_IR_OPS_H

#include "support/StableVector.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace denali {
namespace ir {

/// Dense operator identifier (index into the OpTable).
using OpId = uint32_t;

/// Builtin operators with fixed 64-bit semantics. `Builtin::None` marks
/// variables and declared operators.
enum class Builtin : uint16_t {
  None = 0,
  Const, ///< Nullary; the constant's value is stored on the term/node.

  // 64-bit arithmetic (modulo 2^64).
  Add64,
  Sub64,
  Mul64,
  Neg64,
  Umulh, ///< High 64 bits of the unsigned 128-bit product.

  // Bitwise logic.
  And64,
  Or64,
  Xor64,
  Not64,
  Bic64,   ///< and-not: bic(x, y) = x & ~y
  Ornot64, ///< or-not:  ornot(x, y) = x | ~y
  Eqv64,   ///< xor-not: eqv(x, y) = ~(x ^ y)

  // Shifts (count taken modulo 64, as on the Alpha).
  Shl64,
  Shr64, ///< Logical right shift.
  Sar64, ///< Arithmetic right shift.

  // Exponentiation; a *non-machine* operation used in axioms like
  // k * 2**n = k << n (paper, section 5).
  Pow,

  // Comparisons (result 0 or 1, as on the Alpha).
  CmpEq,
  CmpUlt,
  CmpUle,
  CmpLt, ///< Signed.
  CmpLe, ///< Signed.

  // Arrays as values (memory). Addresses index 64-bit words.
  Select,
  Store,

  // Integers as arrays of bytes / 16-bit words (paper, section 4).
  SelectB, ///< selectb(w, i) = byte i of w.
  StoreB,  ///< storeb(w, i, x) = w with byte i replaced by low byte of x.
  SelectW, ///< selectw(w, i) = 16-bit field of w at byte offset i.
  StoreW,

  // Zero/sign extensions of low fields.
  Zext8,
  Zext16,
  Zext32,
  Sext8,
  Sext16,
  Sext32,

  // Alpha byte-manipulation instructions (section 4's examples).
  Extbl, ///< extbl(w, i) = selectb(w, i)
  Extwl, ///< extwl(w, i) = selectw(w, i)
  Insbl, ///< insbl(w, i) = (w & 0xff) << 8i
  Inswl,
  Mskbl, ///< mskbl(w, i) = storeb(w, i, 0)
  Mskwl,
  Zapnot, ///< zapnot(w, m) = keep bytes selected by the low 8 bits of m.

  // Scaled add/subtract (the paper's s4addl example).
  S4Addl,
  S8Addl,
  S4Subl,
  S8Subl,

  // Conditional moves: cmovXX(cond, val, old) = XX(cond) ? val : old.
  CmovEq,
  CmovNe,
  CmovLt,
  CmovGe,

  NumBuiltins
};

/// Classifies an operator.
enum class OpKind : uint8_t {
  Builtin,  ///< Fixed semantics (see Builtin).
  Variable, ///< GMA input (register, memory array, parameter).
  Declared  ///< Introduced by \opdecl; semantics only via axioms.
};

/// Static information about one operator.
struct OpInfo {
  std::string Name;
  int Arity = 0;
  OpKind Kind = OpKind::Builtin;
  Builtin BuiltinOp = Builtin::None;
  bool Commutative = false; ///< Used only for printing/statistics; algebraic
                            ///< properties enter the system via axioms.
};

/// Owns all operators of one superoptimization context and provides
/// name-based lookup. OpIds are stable for the table's lifetime, and so
/// are the OpInfo references info() hands out: appending an operator
/// (every new variable name does) never moves an existing one, and size()
/// and info() may be read without the lock that serializes the appends
/// (the compile server's front-end lock; see support/StableVector.h).
class OpTable {
public:
  OpTable();

  /// \returns the OpId of builtin \p B.
  OpId builtin(Builtin B) const;

  /// Declares (or returns the existing) variable named \p Name.
  OpId makeVariable(std::string_view Name);

  /// Declares an operator via \opdecl. Fails fatally if \p Name clashes with
  /// an existing operator of a different arity or kind.
  OpId declareOp(const std::string &Name, int Arity);

  /// Name-based lookup. \returns std::nullopt if unknown.
  std::optional<OpId> lookup(std::string_view Name) const;

  const OpInfo &info(OpId Id) const {
    assert(Id < Infos.size() && "bad OpId");
    return Infos[Id];
  }
  size_t size() const { return Infos.size(); }

  bool isVariable(OpId Id) const { return info(Id).Kind == OpKind::Variable; }
  bool isConst(OpId Id) const { return info(Id).BuiltinOp == Builtin::Const; }
  Builtin builtinOf(OpId Id) const { return info(Id).BuiltinOp; }

private:
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  StableVector<OpInfo> Infos;
  std::unordered_map<std::string, OpId, NameHash, std::equal_to<>> ByName;
  OpId BuiltinIds[static_cast<size_t>(Builtin::NumBuiltins)] = {};

  OpId addOp(OpInfo Info);
};

} // namespace ir
} // namespace denali

#endif // DENALI_IR_OPS_H
