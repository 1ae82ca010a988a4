/**
 * @file
 * Abstract SIMT instruction set.
 *
 * The models and simulators only care about an instruction's latency
 * class and whether it goes through the global-memory hierarchy, so
 * the ISA is a small set of opcode classes rather than a full PTX
 * decoder (the paper's GPUOcelot traces are reduced to exactly this
 * information).
 */

#ifndef GPUMECH_TRACE_ISA_HH
#define GPUMECH_TRACE_ISA_HH

#include <cstdint>
#include <string>

#include "common/config.hh"

namespace gpumech
{

/** Opcode classes of the abstract SIMT ISA. */
enum class Opcode : std::uint8_t
{
    IntAlu,      //!< integer arithmetic / logic
    FpAlu,       //!< normal floating-point arithmetic
    Sfu,         //!< special function unit (transcendental)
    Branch,      //!< control instruction
    SharedLoad,  //!< software-managed (shared) memory load
    SharedStore, //!< software-managed (shared) memory store
    GlobalLoad,  //!< global-memory load (through L1/L2/DRAM)
    GlobalStore, //!< global-memory store (write-through to DRAM)
};

/** Number of distinct opcodes (for table sizing). */
constexpr std::uint32_t numOpcodes = 8;

/** True for loads and stores of any memory space. */
bool isMemory(Opcode op);

/** True for global-memory operations (the ones seen by the caches). */
bool isGlobalMemory(Opcode op);

/** True for GlobalLoad / SharedLoad. */
bool isLoad(Opcode op);

/** True for GlobalStore / SharedStore. */
bool isStore(Opcode op);

/**
 * Fixed latency of a non-global-memory opcode from the configuration's
 * latency table. Calling this with a global-memory opcode is a
 * programming error (their latency comes from the cache model).
 */
std::uint32_t fixedLatency(Opcode op, const LatencyTable &table);

/** Mnemonic string for an opcode. */
std::string toString(Opcode op);

/**
 * Mnemonic lookup, the inverse of toString(): true and sets @p op on
 * success. The trace parser turns a false into a returned Status.
 */
bool tryOpcodeFromString(const std::string &name, Opcode &op);

} // namespace gpumech

#endif // GPUMECH_TRACE_ISA_HH
