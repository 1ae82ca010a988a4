#include "trace/isa.hh"

#include "common/logging.hh"

namespace gpumech
{

bool
isMemory(Opcode op)
{
    switch (op) {
      case Opcode::SharedLoad:
      case Opcode::SharedStore:
      case Opcode::GlobalLoad:
      case Opcode::GlobalStore:
        return true;
      default:
        return false;
    }
}

bool
isGlobalMemory(Opcode op)
{
    return op == Opcode::GlobalLoad || op == Opcode::GlobalStore;
}

bool
isLoad(Opcode op)
{
    return op == Opcode::GlobalLoad || op == Opcode::SharedLoad;
}

bool
isStore(Opcode op)
{
    return op == Opcode::GlobalStore || op == Opcode::SharedStore;
}

std::uint32_t
fixedLatency(Opcode op, const LatencyTable &table)
{
    switch (op) {
      case Opcode::IntAlu:
        return table.intAlu;
      case Opcode::FpAlu:
        return table.fpAlu;
      case Opcode::Sfu:
        return table.sfu;
      case Opcode::Branch:
        return table.branch;
      case Opcode::SharedLoad:
      case Opcode::SharedStore:
        return table.sharedMem;
      case Opcode::GlobalLoad:
      case Opcode::GlobalStore:
        panic("fixedLatency called on a global-memory opcode");
    }
    panic("unknown opcode");
}

std::string
toString(Opcode op)
{
    switch (op) {
      case Opcode::IntAlu:
        return "ialu";
      case Opcode::FpAlu:
        return "falu";
      case Opcode::Sfu:
        return "sfu";
      case Opcode::Branch:
        return "br";
      case Opcode::SharedLoad:
        return "ld.shared";
      case Opcode::SharedStore:
        return "st.shared";
      case Opcode::GlobalLoad:
        return "ld.global";
      case Opcode::GlobalStore:
        return "st.global";
    }
    return "?";
}

bool
tryOpcodeFromString(const std::string &name, Opcode &op)
{
    for (std::uint32_t i = 0; i < numOpcodes; ++i) {
        auto candidate = static_cast<Opcode>(i);
        if (toString(candidate) == name) {
            op = candidate;
            return true;
        }
    }
    return false;
}

} // namespace gpumech
